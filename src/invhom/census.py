"""Exhaustive scans over all structures of a tiny order.

A candidate of order n is a product table together with an alpha table,
n**(n*n) * n**n in all, so full censuses stop at order 3.  Iteration is
deterministic: product tables vary row-major, alpha tables innermost.  One
scan loop serves both the census and the filtered stream, and it checks the
laws with the index-level kernel from finite.py, the same code behind the
check_* functions.

The laws do not change under relabeling, and relabeling by g maps the
alphas one to one onto the alphas, so all product tables in one orbit of
relabelings give the same counts of law quadruples over all alphas.  The raw
census therefore scans one table per orbit, the least, against every alpha,
and counts each quadruple orbit-size times: 3,330 tables instead of 19,683
at order 3.

The census counts isomorphism classes by Burnside's lemma.  Each bucket is a
union of classes, and its class count is the average over all relabelings g
of the number of its candidates that g leaves unchanged.  The identity term
is the raw count above; every other term scans only the few candidates that
g fixes.  The stream instead tests each candidate's canonical form, because
it must yield the least representative of each class.
"""

from __future__ import annotations

import collections
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from .finite import FiniteHomMagma
from .finite import _assoc_witness, _hom_witness, _invol_witness, _mult_witness

_LABELS = ("a", "b", "c", "d")

Quad = Tuple[bool, bool, bool, bool]


def canonical_form(mul, alpha) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Least relabeling of a candidate, flattened.

    Two candidates are isomorphic exactly when their canonical forms are
    equal, so this doubles as the deduplication key for up_to_iso scans.
    """
    n = len(alpha)
    best = None
    for perm in itertools.permutations(range(n)):
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        flat_mul = tuple(
            perm[mul[inv[p]][inv[q]]] for p in range(n) for q in range(n)
        )
        flat_alpha = tuple(perm[alpha[inv[p]]] for p in range(n))
        cand = (flat_mul, flat_alpha)
        if best is None or cand < best:
            best = cand
    return best


@dataclass(frozen=True)
class Census:
    """Counts of candidates by the quadruple of laws they satisfy.

    Keys of ``counts`` are (hom_associative, associative, multiplicative,
    involutive_alpha); all 16 keys are present.  With up_to_iso the counts
    are of isomorphism classes instead of raw tables.
    """

    order: int
    total_candidates: int
    counts: Dict[Quad, int]
    up_to_iso: bool = False

    def law_count(
        self,
        hom_associative: Optional[bool] = None,
        associative: Optional[bool] = None,
        multiplicative: Optional[bool] = None,
        involutive_alpha: Optional[bool] = None,
    ) -> int:
        wanted = (hom_associative, associative, multiplicative, involutive_alpha)
        total = 0
        for quad, k in self.counts.items():
            if all(w is None or w == q for w, q in zip(wanted, quad)):
                total += k
        return total


def _scan(
    n,
    hom_associative,
    associative,
    multiplicative,
    involutive_alpha,
    up_to_iso,
    tables=None,
) -> Iterator[Tuple[tuple, tuple, Quad]]:
    """Yield (mul, alpha, quad) for each order-n candidate passing the filters.

    Filters are three-valued as in iter_matching.  Laws run cheapest first
    (involution once per alpha, associativity once per product table, then
    hom-associativity and multiplicativity), and the canonical-form test
    last, so a rejected candidate costs as little as possible.  The
    candidates are every product table paired with every alpha, or, when
    ``tables`` is a pair (product tables, alphas), those two lists paired.
    """
    want_hom, want_assoc, want_mult, want_invol = (
        (False, True) if law is None else (law,)
        for law in (hom_associative, associative, multiplicative, involutive_alpha)
    )
    if tables is None:
        rows = list(itertools.product(range(n), repeat=n))
        tables = itertools.product(rows, repeat=n), rows
    muls, alphas = tables
    alphas = [(al, _invol_witness(al, n) is None) for al in alphas]
    alphas = [(al, invol) for al, invol in alphas if invol in want_invol]
    for mul in muls:
        assoc = _assoc_witness(mul, n) is None
        if assoc not in want_assoc:
            continue
        for al, invol in alphas:
            hom = _hom_witness(mul, al, n) is None
            if hom not in want_hom:
                continue
            mult = _mult_witness(mul, al, n) is None
            if mult not in want_mult:
                continue
            if up_to_iso and (sum(mul, ()), al) != canonical_form(mul, al):
                continue
            yield mul, al, (hom, assoc, mult, invol)


def _orbit(start, move) -> list:
    """The points start, move(start), move(move(start)), ... up to the repeat."""
    orbit, p = [start], move(start)
    while p != start:
        orbit.append(p)
        p = move(p)
    return orbit


def _fixed_tables(n, g) -> Tuple[list, list]:
    """The product tables and the alphas that relabeling by g leaves unchanged.

    relabel moves element i to g[i], so it fixes mul exactly when
    mul[g i][g j] = g mul[i][j] for all cells, and alpha exactly when
    alpha[g i] = g alpha[i].  Along the g-orbit of a cell (or of an element)
    the first value v fixes all the others, and v is free among the elements
    whose g-cycle length divides the orbit's length.
    """
    step = g.__getitem__
    cycle = [len(_orbit(v, step)) for v in range(n)]

    def fixed(points, move):
        orbits = []
        for p in points:
            if all(p not in orbit for orbit, _ in orbits):
                orbit = _orbit(p, move)
                free = [v for v in range(n) if len(orbit) % cycle[v] == 0]
                orbits.append((orbit, free))
        for choice in itertools.product(*(free for _, free in orbits)):
            table = {}
            for (orbit, _), v in zip(orbits, choice):
                for p in orbit:
                    table[p] = v
                    v = g[v]
            yield tuple(table[p] for p in points)

    cells = [(i, j) for i in range(n) for j in range(n)]
    muls = [
        tuple(flat[i * n : i * n + n] for i in range(n))
        for flat in fixed(cells, lambda c: (g[c[0]], g[c[1]]))
    ]
    return muls, list(fixed(range(n), step))


def _table_orbits(n) -> Iterator[Tuple[tuple, int]]:
    """Yield (least table, orbit size) for each relabeling orbit of product tables.

    The walk visits the product tables in scan order, so the first table it
    meets in an orbit is the orbit's least one.  It then marks every relabel
    image of that table in a bytearray indexed by row-major rank, which is
    the table read as a base-n number, and counts the images it marks.
    """
    rows = list(itertools.product(range(n), repeat=n))
    cells = n * n
    # for each g, the place value of the cell (g i, g j) that relabeling by g
    # moves cell k = (i, j) to
    places = [
        (g, [n ** (cells - 1 - g[k // n] * n - g[k % n]) for k in range(cells)])
        for g in itertools.permutations(range(n))
    ]
    seen = bytearray(n**cells)
    rank = 0
    while rank != -1:
        table = tuple(rows[rank // len(rows) ** (n - 1 - i) % len(rows)] for i in range(n))
        flat, size = sum(table, ()), 0
        for g, place in places:
            image = sum(g[v] * w for v, w in zip(flat, place))
            if not seen[image]:
                seen[image] = 1
                size += 1
        yield table, size
        rank = seen.find(0, rank + 1)


def census(order: int, up_to_iso: bool = False) -> Census:
    """Classify every candidate of the given order against all four laws."""
    if not 1 <= order <= 3:
        raise ValueError("census is exhaustive, order must be 1, 2, or 3")
    # The raw count: the least table of each relabeling orbit against every
    # alpha, each quad counted orbit-size times.  _scan draws the next table
    # only after its last yield for this one, so `orbit` is the orbit in hand.
    orbit = None

    def least_tables():
        nonlocal orbit
        for orbit in _table_orbits(order):
            yield orbit[0]

    alphas = list(itertools.product(range(order), repeat=order))
    quads = collections.Counter()
    for _, _, quad in _scan(order, None, None, None, None, False, (least_tables(), alphas)):
        quads[quad] += orbit[1]
    if up_to_iso:
        # Burnside: the count above is the identity's term; the first
        # permutation is the identity, so the rest are the other terms.
        for g in itertools.islice(itertools.permutations(range(order)), 1, None):
            scan = _scan(order, None, None, None, None, False, _fixed_tables(order, g))
            quads.update(map(operator.itemgetter(2), scan))
        group = math.factorial(order)
        for quad, fixed_sum in quads.items():
            classes, rest = divmod(fixed_sum, group)
            if rest:
                raise RuntimeError(
                    "Burnside sum %d for %s is not a multiple of %d"
                    % (fixed_sum, quad, group)
                )
            quads[quad] = classes
    counts = {q: 0 for q in itertools.product((False, True), repeat=4)}
    counts.update(quads)
    return Census(order, order ** (order * order + order), counts, up_to_iso)


def iter_matching(
    order: int,
    hom_associative: Optional[bool] = None,
    associative: Optional[bool] = None,
    multiplicative: Optional[bool] = None,
    involutive_alpha: Optional[bool] = None,
    up_to_iso: bool = False,
) -> Iterator[FiniteHomMagma]:
    """Stream the structures of one order that match the requested laws.

    Law arguments are three-valued: True to require, False to forbid, None
    to ignore.  With up_to_iso only the least relabeling of each
    isomorphism class is yielded.  Orders up to 4 are accepted, but an
    unfiltered scan at order 4 is astronomically long; callers are expected
    to bound it (the command line tool insists on a filter and a limit).
    """
    if not 1 <= order <= 4:
        raise ValueError("order must be between 1 and 4")
    labels = _LABELS[:order]
    scan = _scan(
        order, hom_associative, associative, multiplicative, involutive_alpha, up_to_iso
    )
    return (FiniteHomMagma(labels, mul, al) for mul, al, _ in scan)
