"""Exhaustive scans over all structures of a tiny order.

A candidate of order n is a product table together with an alpha table,
n**(n*n) * n**n in all, so full censuses stop at order 3.  Iteration is
deterministic: product tables vary row-major, alpha tables innermost.  One
scan loop serves both the census and the filtered stream, and it checks the
laws with the index-level kernel from finite.py, the same code behind the
check_* functions.

Relabeling by g maps a candidate (mul, alpha) to (g.mul, g.alpha).  It keeps
every law and maps the alphas one to one onto the alphas, so all product
tables in one orbit of relabelings give the same counts of law quadruples
over all alphas.  The raw census therefore scans one table per orbit, the
least, against every alpha, and counts each quadruple n!/|Stab(mul)| times,
the orbit's size: 3,330 tables instead of 19,683 at order 3.

A candidate is the least member of its isomorphism class exactly when mul
is the least table in its orbit and alpha is the least of its images under
Stab(mul), the relabelings that fix mul (orderly generation, after McKay).
The class census counts those candidates in the same pass, and the stream
yields them; at order 3 only 93 of the 3,330 least tables have more than
the identity in their stabilizer.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .finite import FiniteHomMagma
from .finite import _assoc_witness, _hom_witness, _invol_witness, _mult_witness

_LABELS = ("a", "b", "c", "d")

Quad = Tuple[bool, bool, bool, bool]


@functools.lru_cache(maxsize=None)
def _relabelings(n) -> Tuple[Tuple[tuple, tuple], ...]:
    """Each relabeling g of range(n), identity first, paired with its inverse.

    Relabeling by g moves element i to g[i], so the image of a table has
    g[mul[h[p]][h[q]]] at cell (p, q) and the image of an alpha has
    g[alpha[h[p]]] at p, where h is the inverse of g.
    """
    group = []
    for g in itertools.permutations(range(n)):
        h = [0] * n
        for i, p in enumerate(g):
            h[p] = i
        group.append((g, tuple(h)))
    return tuple(group)


def canonical_form(mul, alpha) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Least relabeling of a candidate, flattened.

    Two candidates are isomorphic exactly when their canonical forms are
    equal.  The up_to_iso scans do not call it; they yield exactly the
    candidates that equal their own canonical form, so it serves as their
    independent check.
    """
    return min(
        (tuple(g[mul[i][j]] for i in h for j in h), tuple(g[alpha[i]] for i in h))
        for g, h in _relabelings(len(alpha))
    )


def _stabilizer(mul) -> list:
    """Stab(mul) as (g, inverse) pairs if mul is least in its orbit, else [].

    The identity fixes every table, so a least table's list is never empty.
    """
    flat, stab = sum(mul, ()), []
    for g, h in _relabelings(len(mul)):
        image = tuple(g[mul[i][j]] for i in h for j in h)
        if image < flat:
            return []
        if image == flat:
            stab.append((g, h))
    return stab


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
) -> Iterator[Tuple[tuple, tuple, Quad, Optional[list]]]:
    """Yield (mul, alpha, quad, stab) for each candidate passing the filters.

    Filters are three-valued as in iter_matching.  Laws run cheapest first
    (involution once per alpha, associativity once per product table, then
    hom-associativity and multiplicativity), so a rejected candidate costs as
    little as possible.  ``tables`` yields (mul, stab) pairs, stab being
    Stab(mul) for a least mul; by default it is every product table with
    stab None.  With up_to_iso a candidate passes only if mul is least in
    its orbit and alpha is least under Stab(mul).  A table whose stab is None
    gets it from _stabilizer once, when its first alpha passes the laws.
    """
    want_hom, want_assoc, want_mult, want_invol = (
        (False, True) if law is None else (law,)
        for law in (hom_associative, associative, multiplicative, involutive_alpha)
    )
    rows = list(itertools.product(range(n), repeat=n))
    if tables is None:
        tables = ((mul, None) for mul in itertools.product(rows, repeat=n))
    alphas = [(al, _invol_witness(al, n) is None) for al in rows]
    alphas = [(al, invol) for al, invol in alphas if invol in want_invol]
    for mul, stab in tables:
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
            if up_to_iso:
                if stab is None:
                    stab = _stabilizer(mul)
                if not stab:
                    break
                # al must be least among its images under Stab(mul); a
                # stabilizer that is only the identity, as most are, passes all.
                if len(stab) > 1 and any(
                    tuple(g[al[i]] for i in h) < al for g, h in stab
                ):
                    continue
            yield mul, al, (hom, assoc, mult, invol), stab


def _table_orbits(n) -> Iterator[Tuple[tuple, List[Tuple[tuple, tuple]]]]:
    """Yield (least table, its stabilizer) for each relabeling orbit of tables.

    The walk visits the product tables in scan order, so the first table it
    meets in an orbit is the orbit's least one.  It then marks every relabel
    image of that table in a bytearray indexed by row-major rank, which is
    the table read as a base-n number.  The relabelings whose image is the
    table itself, as (g, inverse) pairs, are its stabilizer, and the orbit
    has n!/|Stab| tables.
    """
    rows = list(itertools.product(range(n), repeat=n))
    cells = n * n
    # for each g, the place value of the cell (g i, g j) that relabeling by g
    # moves cell k = (i, j) to
    places = [
        ((g, h), [n ** (cells - 1 - g[k // n] * n - g[k % n]) for k in range(cells)])
        for g, h in _relabelings(n)
    ]
    seen = bytearray(n**cells)
    rank = 0
    while rank != -1:
        table = tuple(rows[rank // len(rows) ** (n - 1 - i) % len(rows)] for i in range(n))
        flat, stab = sum(table, ()), []
        for (g, h), place in places:
            image = sum(g[v] * w for v, w in zip(flat, place))
            seen[image] = 1
            if image == rank:
                stab.append((g, h))
        yield table, stab
        rank = seen.find(0, rank + 1)


def census(order: int, up_to_iso: bool = False) -> Census:
    """Classify every candidate of the given order against all four laws."""
    if not 1 <= order <= 3:
        raise ValueError("census is exhaustive, order must be 1, 2, or 3")
    # One pass over the least table of each orbit against every alpha.  A raw
    # candidate counts n!/|Stab| times, once per table in its table's orbit;
    # with up_to_iso the scan keeps the least member of each class, once.
    group = math.factorial(order)
    quads = collections.Counter()
    scan = _scan(order, None, None, None, None, up_to_iso, _table_orbits(order))
    for _, _, quad, stab in scan:
        quads[quad] += 1 if up_to_iso else group // len(stab)
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
    return (FiniteHomMagma(labels, mul, al) for mul, al, _, _ in scan)
