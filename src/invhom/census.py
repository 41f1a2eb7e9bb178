"""Exhaustive scans over all structures of a tiny order.

A candidate of order n is a product table together with an alpha table,
n**(n*n) * n**n in all, so full censuses stop at order 3.  Iteration is
deterministic: product tables vary row-major, alpha tables innermost.  One
scan loop serves both the census and the filtered stream, and it checks the
laws with the index-level kernel from finite.py, the same code behind the
check_* functions.

Relabeling by g maps a candidate (mul, alpha) to (g.mul, g.alpha), and
keeps every law.  So does the opposite product, x o y = mul(y, x), with the
same alpha:

- hom-associativity: alpha(x) o (y o z) = (zy)alpha(x) and
  (x o y) o alpha(z) = alpha(z)(yx), the law for mul at (z, y, x);
- associativity: x o (y o z) = (zy)x and (x o y) o z = z(yx), likewise;
- multiplicativity: alpha(x o y) = alpha(yx) = alpha(y)alpha(x), which is
  alpha(x) o alpha(y);
- the involution law does not involve the product.

Each of the 2n! symmetries, a relabeling with or without the opposite
product, maps the alphas one to one onto the alphas, so all product tables
in one orbit give the same counts of law quadruples over all alphas.  The
raw census therefore scans one table per orbit, the least, and counts each
quadruple 2n!/|Stab(mul)| times, the orbit's size: 1,734 tables instead of
19,683 at order 3, where relabeling alone would leave 3,330.

A candidate is the least member of its orbit exactly when mul is the least
table in its orbit and alpha is the least of its images under Stab(mul),
the symmetries that fix mul, the opposite of g acting on alphas as g does
(orderly generation, after McKay).  Such an orbit is one isomorphism class
when an opposite symmetry in Stab(mul) also fixes alpha, and two classes
with the same laws otherwise, so the class census counts it once or twice
in the same pass.  The up_to_iso stream walks the relabelings alone, as it
yields the least member of each isomorphism class.  At order 3 only 178 of
the 1,734 least tables have more than the identity in their stabilizer.

Most alphas of a least table are decided by the law instances with one alpha
value (node consistency, after Mackworth, 1977).  Hom-associativity at
(x, y, x), alpha(x)(yx) = (xy)alpha(x), sees alpha only through alpha(x):
let D_x be the p with p(yx) = (xy)p for every y.  Multiplicativity at (x, x),
alpha(xx) = alpha(x)alpha(x), says that alpha commutes with sq(x) = xx.  An
alpha with some alpha(x) outside D_x that does not commute with sq fails both
laws, with quadruple (no, the table's associativity, no, its own involution
law), and the census counts those per table in bulk, an exact decision.  The
law kernel sees the rest: 12,469 of the 46,818 least-table candidates at order 3.

One orbit walk finds the least tables and their stabilizers for the
census and every up_to_iso stream, under either group.  A table is least
when none of its images comes before it in scan order.  The walk decides
each table from its own images and keeps nothing from one table to the next.

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

The package binds the name invhom.census to the census function, which
hides this module of the same name: ``import invhom.census as m`` gives the
function.  Reach the module with ``from invhom.census import ...`` or
``importlib.import_module("invhom.census")``.
"""

from __future__ import annotations

import collections
import functools
import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Tuple

from .finite import FiniteHomMagma
from .finite import _assoc_witness, _hom_witness, _invol_witness, _mult_witness

_LABELS = ("a", "b", "c", "d")

Quad = Tuple[bool, bool, bool, bool]


def _symmetry(g, opposite) -> tuple:
    """One symmetry of the candidates of order len(g).

    Returns (g, inverse, opposite, image).  Relabeling by g moves element i
    to g[i], so the image of a table has g[mul[h[p]][h[q]]] at cell (p, q)
    and the image of an alpha has g[alpha[h[p]]] at p, where h is the
    inverse of g.  With opposite, the table is first replaced by its
    opposite, mul(y, x) at (x, y), and the alpha is kept, so the opposite of
    g acts on alphas as g does.

    ``image`` maps each n-tuple r to tuple(g[r[k]] for k in h).  It relabels
    an alpha, image[alpha], and row p of a table's image is
    image[source[h[p]]], where source is mul for a relabeling and its
    columns, tuple(zip(*mul)), for an opposite symmetry.
    """
    n = len(g)
    h = [0] * n
    for i, p in enumerate(g):
        h[p] = i
    h = tuple(h)
    rows = itertools.product(range(n), repeat=n)
    return g, h, opposite, {r: tuple(g[r[k]] for k in h) for r in rows}


@functools.lru_cache(maxsize=None)
def _relabelings(n) -> Tuple[tuple, ...]:
    """Each relabeling of range(n), identity first, as a _symmetry."""
    return tuple(_symmetry(g, False) for g in itertools.permutations(range(n)))


@functools.lru_cache(maxsize=None)
def _symmetries(n) -> Tuple[tuple, ...]:
    """The relabelings of range(n), then each after the opposite product."""
    opposites = (_symmetry(g, True) for g in itertools.permutations(range(n)))
    return _relabelings(n) + tuple(opposites)


def canonical_form(mul, alpha) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Least relabeling of a candidate, flattened.

    Two candidates are isomorphic exactly when their canonical forms are
    equal.  The up_to_iso scans do not call it; they yield exactly the
    candidates that equal their own canonical form, so it serves as their
    independent check.
    """
    return min(
        (tuple(g[mul[i][j]] for i in h for j in h), tuple(g[alpha[i]] for i in h))
        for g, h, *_ in _relabelings(len(alpha))
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
) -> Iterator[Tuple[tuple, list, Optional[List[tuple]], bool, List[Tuple[tuple, Quad]]]]:
    """Yield (mul, stab, alphas, assoc, passed) for each table, in order.

    Filters are three-valued as in iter_matching.  Laws run cheapest first
    (involution once per alpha, associativity once per product table, then
    hom-associativity and multiplicativity), so a rejected candidate costs as
    little as possible.  ``tables`` yields (mul, stab, alphas) triples in
    scan order, alphas being the alpha tables to try on mul, in order, or
    None for every alpha table.  The laws run on every candidate whatever
    its source, so a source may only prune.  With up_to_iso the tables come
    from the orbit walk _least, so stab is Stab(mul), and a candidate passes
    only if alpha is least among its images under Stab(mul).  ``passed``
    holds the (alpha, quad) pairs that pass, in order; a table that fails
    the associativity filter yields nothing.
    """
    want_hom, want_assoc, want_mult, want_invol = (
        (False, True) if law is None else (law,)
        for law in (hom_associative, associative, multiplicative, involutive_alpha)
    )
    rows = list(itertools.product(range(n), repeat=n))
    invol = {al: _invol_witness(al, n) is None for al in rows}

    def allowed(alphas):
        return [(al, invol[al]) for al in alphas if invol[al] in want_invol]

    every_alpha = allowed(rows)
    for mul, stab, alphas in tables:
        assoc = _assoc_witness(mul, n) is None
        if assoc not in want_assoc:
            continue
        passed = []
        for al, inv in every_alpha if alphas is None else allowed(alphas):
            hom = _hom_witness(mul, al, n) is None
            if hom not in want_hom:
                continue
            mult = _mult_witness(mul, al, n) is None
            if mult not in want_mult:
                continue
            # al must be least among its images under Stab(mul); a stabilizer
            # that is only the identity, as most are, passes all.
            if up_to_iso and len(stab) > 1 and any(image[al] < al for *_, image in stab):
                continue
            passed.append((al, (hom, assoc, mult, inv)))
        yield mul, stab, alphas, assoc, passed


def _commuting(rows) -> Dict[tuple, frozenset]:
    """Map each squaring map sq in rows to the alphas with alpha o sq = sq o alpha."""
    return {sq: frozenset(al for al in rows if all(al[s] == sq[a] for s, a in zip(sq, al)))
            for sq in rows}


def _undecided(mul, commuting) -> List[tuple]:
    """The alphas of mul, in order, in D_0 x ... x D_(n-1) or in commuting[sq]."""
    r, columns = range(len(mul)), tuple(zip(*mul))
    # p is in D_x when the products p(yx) over y equal the products (xy)p
    sides = [(itemgetter(*yx), itemgetter(*xy)) for yx, xy in zip(columns, mul)]
    hom = [[p for p in r if left(mul[p]) == right(columns[p])] for left, right in sides]
    sq = tuple(mul[x][x] for x in r)
    return sorted(commuting[sq].union(itertools.product(*hom)))


def _every_table(n) -> Iterator[Tuple[tuple, None]]:
    """Yield (mul, None) for every product table, in scan order."""
    tables = itertools.product(itertools.product(range(n), repeat=n), repeat=n)
    return ((mul, None) for mul in tables)


def _lawful_tables(n) -> Iterator[Tuple[tuple, List[tuple]]]:
    """Yield (mul, alphas) for each table some involution makes lawful.

    A backtracking search fills the cells row-major, each value ascending,
    so tables come in scan order.  Each node carries the involutions alpha,
    in scan order, that no filled cell has ruled out; a node with none left
    is pruned, and a leaf's survivors are exactly the alphas that make the
    table hom-associative and multiplicative.  Every law instance is checked
    once, at the cell that completes it:

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

    def fill(p, live):
        if p == cells:
            mul = tuple(tuple(m[i : i + n]) for i in range(0, cells, n))
            yield mul, [al for al, _, _, _ in live]
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
            yield from fill(p + 1, [rec for rec, _ in kept])
            for rec, new in kept:
                watch = rec[3]
                for t, _, _ in new:
                    watch[t].pop()

    return fill(0, involutions)


def _least(tables, group) -> Iterator[Tuple[tuple, list, Optional[List[tuple]]]]:
    """Yield (mul, Stab(mul), alphas) for each table least in its orbit.

    ``tables`` yields (mul, alphas) in scan order.  ``group`` holds the
    symmetries, identity first: the relabelings for a stream, whose orbits
    are isomorphism classes, or every symmetry from _symmetries for the
    census.  A table is least in its orbit when none of its images comes
    before it, and the symmetries whose image is the table itself are
    Stab(mul); the orbit has |group|/|Stab| tables.  Each table is decided
    from its own images alone.  Most images differ from the table in their
    first row, one lookup; only an image that starts with the table's first
    row is built in full.
    """
    identity, others = group[0], group[1:]
    for mul, alphas in tables:
        stab, first, columns = [identity], mul[0], None
        for s in others:
            _, h, opp, image = s
            if opp and columns is None:
                columns = tuple(zip(*mul))
            source = columns if opp else mul
            row = image[source[h[0]]]
            if row > first:
                continue
            if row < first:
                break
            table = tuple(image[source[p]] for p in h)
            if table < mul:
                break
            if table == mul:
                stab.append(s)
        else:
            yield mul, stab, alphas


def census(order: int, up_to_iso: bool = False) -> Census:
    """Classify every candidate of the given order against all four laws.

    Every law is checked on the least product table of each orbit under
    relabeling and the opposite product, 1,734 tables at order 3, and each
    candidate found stands for its whole orbit.  Alphas ruled out by D_x and
    the squaring map fail both laws and are counted in bulk (module docstring).
    """
    if not 1 <= order <= 3:
        raise ValueError("census is exhaustive, order must be 1, 2, or 3")
    # A raw candidate counts 2n!/|Stab| times.  With up_to_iso the least
    # candidate of an orbit is one class if an opposite symmetry fixes it, else
    # two, so only a table whose Stab holds more than the identity keeps every alpha.
    group = _symmetries(order)
    rows = list(itertools.product(range(order), repeat=order))
    commuting = _commuting(rows)
    every = collections.Counter(_invol_witness(al, order) is None for al in rows)
    tables = (
        (mul, stab, None if up_to_iso and len(stab) > 1 else _undecided(mul, commuting))
        for mul, stab, _ in _least(_every_table(order), group)
    )
    quads = collections.Counter()
    for _, stab, alphas, assoc, passed in _scan(order, None, None, None, None, up_to_iso, tables):
        if alphas is None:
            for al, quad in passed:
                quads[quad] += 1 if any(o and im[al] == al for _, _, o, im in stab) else 2
            continue
        weight = 2 if up_to_iso else len(group) // len(stab)
        left = every.copy()  # the alphas left out, by their involution law
        for _, quad in passed:
            quads[quad] += weight
            left[quad[3]] -= 1
        for invol, k in left.items():
            quads[False, assoc, False, invol] += weight * k
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
        _least(source, _relabelings(order)) if up_to_iso else ((m, None, a) for m, a in source),
    )
    return (FiniteHomMagma(labels, mul, al) for mul, _, _, _, passed in scan for al, _ in passed)
