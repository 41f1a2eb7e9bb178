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

One orbit walk finds the least tables and their stabilizers for the
census and every up_to_iso stream.  A table is least when none of its
relabel images comes before it in scan order; the images that come after
it are not least, and the walk skips them unrelabeled when it meets them.

The stream of the paper's lawful structures (hom-associative,
multiplicative, involutive alpha) does not walk every table.  A backtracking
search in the manner of finite model finders (McCune, Mace4) fills the cells
one at a time in scan order and keeps, per partial table, the involutions
that no completed law instance has ruled out.  Each instance is checked once,
when its last cell is filled: a hom-associativity triple whose data cells
are still empty waits on a watch list at the later one (as in the Chaff SAT
solver).  The search only prunes; its tables and surviving involutions go
through the same scan loop and law kernel.  At order 4 it visits about
180,000 partial tables instead of 4**16 tables, and yields all 4,428
lawful candidates in about a second.
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
def _relabelings(n) -> Tuple[Tuple[tuple, tuple, tuple], ...]:
    """Each relabeling g of range(n), identity first, as (g, inverse, place).

    Relabeling by g moves element i to g[i], so the image of a table has
    g[mul[h[p]][h[q]]] at cell (p, q) and the image of an alpha has
    g[alpha[h[p]]] at p, where h is the inverse of g.  It moves cell
    k = (i, j) to (g i, g j), so a table's image, read row-major as a
    base-n number, is the sum of g[v] * place[k] over its values v.
    """
    group, cells = [], n * n
    for g in itertools.permutations(range(n)):
        h = [0] * n
        for i, p in enumerate(g):
            h[p] = i
        place = tuple(n ** (cells - 1 - g[k // n] * n - g[k % n]) for k in range(cells))
        group.append((g, tuple(h), place))
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
        for g, h, _ in _relabelings(len(alpha))
    )


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
    tables,
) -> Iterator[Tuple[tuple, tuple, Quad, Optional[list]]]:
    """Yield (mul, alpha, quad, stab) for each candidate passing the filters.

    Filters are three-valued as in iter_matching.  Laws run cheapest first
    (involution once per alpha, associativity once per product table, then
    hom-associativity and multiplicativity), so a rejected candidate costs as
    little as possible.  ``tables`` yields (mul, stab, alphas) triples in
    scan order, alphas being the alpha tables to try on mul, in order, or
    None for every alpha table.  The laws run on every candidate whatever
    its source, so a source may only prune.  With up_to_iso the tables come
    from the orbit walk _least, so stab is Stab(mul), and a candidate passes
    only if alpha is least among its images under Stab(mul).
    """
    want_hom, want_assoc, want_mult, want_invol = (
        (False, True) if law is None else (law,)
        for law in (hom_associative, associative, multiplicative, involutive_alpha)
    )
    rows = list(itertools.product(range(n), repeat=n))

    def allowed(alphas):
        pairs = ((al, _invol_witness(al, n) is None) for al in alphas)
        return [(al, invol) for al, invol in pairs if invol in want_invol]

    every_alpha = allowed(rows)
    for mul, stab, alphas in tables:
        assoc = _assoc_witness(mul, n) is None
        if assoc not in want_assoc:
            continue
        for al, invol in every_alpha if alphas is None else allowed(alphas):
            hom = _hom_witness(mul, al, n) is None
            if hom not in want_hom:
                continue
            mult = _mult_witness(mul, al, n) is None
            if mult not in want_mult:
                continue
            # al must be least among its images under Stab(mul); a stabilizer
            # that is only the identity, as most are, passes all.
            if up_to_iso and len(stab) > 1 and any(
                tuple(g[al[i]] for i in h) < al for g, h in stab
            ):
                continue
            yield mul, al, (hom, assoc, mult, invol), stab


def _every_table(n) -> Iterator[Tuple[int, tuple, None]]:
    """Yield (rank, mul, None) for every product table, in scan order."""
    tables = itertools.product(itertools.product(range(n), repeat=n), repeat=n)
    return ((rank, mul, None) for rank, mul in enumerate(tables))


def _lawful_tables(n) -> Iterator[Tuple[int, tuple, List[tuple]]]:
    """Yield (rank, mul, alphas) for each table some involution makes lawful.

    A backtracking search fills the cells row-major, each value ascending,
    so tables come in scan order.  Each node carries the rank of its filled
    cells and the involutions alpha, in scan order, that no filled cell has
    ruled out; a node with none left is pruned, and a leaf's survivors are
    exactly the alphas that make the table hom-associative and
    multiplicative.  Every law instance is checked once, at the cell that
    completes it:

    - alpha(m_ij) = m_(ai)(aj) at the later of (i, j) and its partner
      (ai, aj).  Alpha is an involution, so the partner's own pair is the
      same equation.
    - alpha(x)(yz) = (xy)alpha(z) at the later of its index cells (y, z) and
      (x, y), which fix its data cells (ax, m_yz) and (m_xy, az).  If a data
      cell is still empty the pair is put on a watch list at the later data
      cell, and checked when the search fills it.
    """
    cells = n * n
    # per involution: alpha, the mult partner of each cell if it is filled no
    # later (else -1), the hom-associativity triples each cell completes as
    # (n*ax, yz, xy, az), and each cell's watch list
    involutions = []
    for al in itertools.product(range(n), repeat=n):
        if _invol_witness(al, n) is not None:
            continue
        partner = [al[p // n] * n + al[p % n] for p in range(cells)]
        partner = [q if q <= p else -1 for p, q in enumerate(partner)]
        fire = [[] for _ in range(cells)]
        for x, y, z in itertools.product(range(n), repeat=3):
            yz, xy = y * n + z, x * n + y
            fire[max(yz, xy)].append((al[x] * n, yz, xy, al[z]))
        involutions.append((al, partner, fire, [[] for _ in range(cells)]))
    m = [0] * cells

    def fill(p, live, rank):
        if p == cells:
            mul = tuple(tuple(m[i : i + n]) for i in range(0, cells, n))
            yield rank, mul, [al for al, _, _, _ in live]
            return
        for v in range(n):
            m[p] = v
            kept = []
            for rec in live:
                al, partner, fire, watch = rec
                q = partner[p]
                if q >= 0 and al[v] != m[q]:
                    continue
                for d, e in watch[p]:
                    if m[d] != m[e]:
                        break
                else:
                    new = []
                    for axn, yz, xy, az in fire[p]:
                        d, e = axn + m[yz], m[xy] * n + az
                        if d > p or e > p:
                            new.append((d if d > e else e, d, e))
                        elif m[d] != m[e]:
                            break
                    else:
                        kept.append((rec, new))
            if not kept:
                continue
            for rec, new in kept:
                watch = rec[3]
                for t, d, e in new:
                    watch[t].append((d, e))
            yield from fill(p + 1, [rec for rec, _ in kept], rank * n + v)
            for rec, new in kept:
                watch = rec[3]
                for t, _, _ in new:
                    watch[t].pop()

    return fill(0, involutions, 0)


def _least(tables) -> Iterator[Tuple[tuple, list, Optional[List[tuple]]]]:
    """Yield (mul, Stab(mul), alphas) for each table least in its orbit.

    ``tables`` yields (rank, mul, alphas) in scan order, rank being mul read
    row-major as a base-n number.  A table is least in its orbit when none
    of its relabel images has a smaller rank.  The relabelings whose image
    is the table itself, as (g, inverse) pairs, are Stab(mul), and the orbit
    has n!/|Stab| tables.  An image of larger rank is not least, since the
    table is a smaller image of it, so the walk keeps its rank and skips it
    unrelabeled when it comes.  On a source that holds every relabeling of
    its tables, as every table and the lawful search's leaves do, only the
    least tables get relabeled while the kept ranks fit the bound below.
    """
    skip = set()
    for rank, mul, alphas in tables:
        if rank in skip:
            skip.remove(rank)
            continue
        flat, stab = sum(mul, ()), []
        for g, h, place in _relabelings(len(mul)):
            image = sum(g[v] * w for v, w in zip(flat, place))
            if image < rank:
                break
            if image == rank:
                stab.append((g, h))
            # a walk of every order-3 table keeps at most 9,310 ranks, but one
            # of every order-4 table would keep millions; past the bound a
            # table's own images decide
            elif len(skip) < 1 << 14:
                skip.add(image)
        else:
            yield mul, stab, alphas


def census(order: int, up_to_iso: bool = False) -> Census:
    """Classify every candidate of the given order against all four laws."""
    if not 1 <= order <= 3:
        raise ValueError("census is exhaustive, order must be 1, 2, or 3")
    # One pass over the least table of each orbit against every alpha.  A raw
    # candidate counts n!/|Stab| times, once per table in its table's orbit;
    # with up_to_iso the scan keeps the least member of each class, once.
    group = math.factorial(order)
    quads = collections.Counter()
    tables = _least(_every_table(order))
    scan = _scan(order, None, None, None, None, up_to_iso, tables)
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
    isomorphism class is yielded.  Orders up to 4 are accepted.  When
    hom_associative, multiplicative and involutive_alpha are all required,
    the paper's lawful structures, a backtracking search prunes the product
    tables cell by cell, and the whole order-4 stream (4,428 structures, 276
    classes) takes seconds.  Any other filter set walks every product table,
    n**(n*n) of them, which at order 4 is astronomically long; callers are
    expected to bound it (the command line tool insists on a filter and a
    limit at order 4).
    """
    if not 1 <= order <= 4:
        raise ValueError("order must be between 1 and 4")
    labels = _LABELS[:order]
    lawful = (hom_associative, multiplicative, involutive_alpha) == (True, True, True)
    source = _lawful_tables(order) if lawful else _every_table(order)
    scan = _scan(
        order,
        hom_associative,
        associative,
        multiplicative,
        involutive_alpha,
        up_to_iso,
        _least(source) if up_to_iso else ((m, None, a) for _, m, a in source),
    )
    return (FiniteHomMagma(labels, mul, al) for mul, al, _, _ in scan)
