"""Exhaustive scans over all structures of a tiny order.

A candidate of order n is a product table together with an alpha table,
n**(n*n) * n**n in all, so full censuses stop at order 3.  Iteration is
deterministic: product tables vary row-major, alpha tables innermost.  The
laws are checked with the index-level kernel from finite.py.

The census counts rather than visits the candidates.  Relabeling keeps every
law and conjugates alpha, so the census counts for the least alpha of each
conjugacy class, weighted by the class size: 3, 7 and 19 classes at orders
2-4 (OEIS A001372).  For such an alpha, M counts the tables on which it is
multiplicative, of N = n**(n*n) tables.

- One search (below), run once for these alphas but the constant one,
  yields the tables on which one of them is hom-associative.  The opposite
  product keeps all four laws, so the search keeps one table of each pair
  {m, m transposed}, weighted 2, or 1 when m is symmetric.  Under the
  identity alpha hom-associativity is associativity, so a leaf is a
  semigroup when the identity survives: 88 leaves for 113 at order 3.  The
  kernel sorts each leaf, for its survivors, and each semigroup, for every
  alpha, by (hom, assoc, mult).  That counts every bucket with hom or
  assoc directly, but (yes, no, mult) for the constant alpha c: that is
  its closed form less its semigroups, as c(yz) = (xy)c separates over
  row c and column c (_constant_count), and mult means m[c][c] = c.
- Two buckets follow: (no, no, yes) = M less the counted candidates with
  mult, and (no, no, no) is the rest of N.
- M has a closed form.  Multiplicativity says m_(T p) = alpha(m_p), where
  T(x, y) = (alpha x, alpha y).  Each component of T's functional graph is
  a cycle with in-trees.  A value v at one cycle cell fixes the whole cycle
  and needs alpha^L(v) = v, L the cycle's length; a tree cell c with T c = p
  takes any u with alpha(u) = m_p.  So M is a product over the components of
  a sum over v of products of in-tree counts.
- The involution law depends on alpha alone.

Classes come from Burnside's lemma: a bucket holds (1/n!) times the sum over
g in S_n of |Fix(g) & bucket| classes, Fix(g) being the candidates that
relabeling by g leaves alone.  Conjugate g give equal terms, so one g per
cycle type serves, and the identity's term is the raw count.  Fix(g) holds
the tables with m[gx][gy] = g(m[x][y]) and the alphas with
alpha o g = g o alpha, built one orbit of cells or elements at a time; the
scan loop _scan classifies all of them, 324 candidates at order 3.

The search, _lawful_tables, fills the cells one at a time in scan order, as
the finite model finder Mace4 does (McCune), and keeps per partial table the
alphas that no completed law instance rules out; an instance with empty data
cells waits on a watch list (as in the Chaff SAT solver).  It serves the
census and every stream that requires hom-associativity.  With up_to_iso a
stream's tables pass through the orbit walk _least (orderly generation,
after McKay), which yields the least candidate of each isomorphism class.
Every table source yields (mul, alphas), and _scan runs the kernel on the
candidates of the streams, the Burnside terms and the brute-force oracles.

The package binds the name invhom.census to the census function, which
hides this module of the same name: ``import invhom.census as m`` gives the
function.  Reach the module with ``from invhom.census import ...`` or
``importlib.import_module("invhom.census")``.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from typing import Dict, Iterator, List, Optional, Tuple

from ._record import _Record
from .finite import FiniteHomMagma
from .finite import _assoc_witness, _hom_witness, _invol_witness, _mult_witness

_LABELS = ("a", "b", "c", "d")

Quad = Tuple[bool, bool, bool, bool]


@functools.lru_cache(maxsize=None)
def _relabelings(n) -> Tuple[tuple, ...]:
    """Each relabeling of range(n), identity first, as (g, inverse, image).

    Relabeling by g moves element i to g[i].  ``image`` maps each n-tuple r
    to tuple(g[r[k]] for k in h), h the inverse of g: it relabels an alpha,
    image[alpha], and row p of a table's image is image[mul[h[p]]].
    """
    rows = list(itertools.product(range(n), repeat=n))
    found = []
    for g in itertools.permutations(range(n)):
        h = tuple(sorted(range(n), key=g.__getitem__))
        found.append((g, h, {r: tuple(g[r[k]] for k in h) for r in rows}))
    return tuple(found)


def canonical_form(mul, alpha) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Least relabeling of a candidate, flattened.

    Two candidates are isomorphic exactly when their canonical forms are
    equal.  The census and the up_to_iso scans do not call it, so it serves
    as their independent check.
    """
    return min(
        (tuple(g[mul[i][j]] for i in h for j in h), tuple(g[alpha[i]] for i in h))
        for g, h, _ in _relabelings(len(alpha))
    )


class Census(_Record):
    """Counts of candidates by the quadruple of laws they satisfy.

    Keys of ``counts`` are (hom_associative, associative, multiplicative,
    involutive_alpha); all 16 keys are present.  With up_to_iso the counts
    are of isomorphism classes instead of raw tables.
    """

    __slots__ = ("order", "total_candidates", "counts", "up_to_iso")

    def __init__(
        self, order: int, total_candidates: int, counts: Dict[Quad, int], up_to_iso: bool = False
    ):
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "total_candidates", total_candidates)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "up_to_iso", up_to_iso)

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


def _scan(n, laws, tables) -> Iterator[Tuple[tuple, tuple, Quad]]:
    """Yield (mul, alpha, quad) for each candidate that passes, in order.

    ``laws`` holds the four three-valued filters of iter_matching, and
    ``tables`` yields (mul, alphas) in scan order: a stream's source, the
    candidates a relabeling fixes, or every candidate for an oracle.  Laws
    run on every candidate, so a source may only prune, and cheapest first:
    involution, associativity once per table, then hom-associativity and
    multiplicativity.
    """
    want_hom, want_assoc, want_mult, want_invol = (
        (False, True) if law is None else (law,) for law in laws
    )
    invol = {al: _invol_witness(al, n) is None for al in itertools.product(range(n), repeat=n)}
    for mul, alphas in tables:
        assoc = _assoc_witness(mul, n) is None
        if assoc not in want_assoc:
            continue
        for al in alphas:
            inv = invol[al]
            if inv not in want_invol:
                continue
            hom = _hom_witness(mul, al, n) is None
            if hom not in want_hom:
                continue
            mult = _mult_witness(mul, al, n) is None
            if mult not in want_mult:
                continue
            yield mul, al, (hom, assoc, mult, inv)


def _every_table(n) -> Iterator[Tuple[tuple, List[tuple]]]:
    """Yield (mul, every alpha table) for every product table, in scan order."""
    rows = list(itertools.product(range(n), repeat=n))
    return ((mul, rows) for mul in itertools.product(rows, repeat=n))


def _lawful_tables(n, alphas, mult, opposite=False) -> Iterator[Tuple[tuple, List[tuple]]]:
    """Yield (mul, survivors) for each table some alpha of alphas makes lawful.

    Lawful means hom-associative, and multiplicative too when mult is set.
    The search fills the cells row-major, each value ascending, so tables
    come in scan order.  Each node carries the alphas, in their order, that
    no filled cell has ruled out, and is pruned when none is left; a leaf's
    survivors are exactly the alphas that make it lawful.  With opposite
    set, only one table of each pair {m, m transposed} is yielded: the one
    whose lower cell (j, i), i < j, holds the larger value at the first
    unequal mirrored pair, in the order the lower cells are filled.  While
    the pairs so far are tied, a lower cell skips the values below its
    mirror's.  Every law instance is checked once, at the cell that
    completes it:

    - with mult, alpha(m_p) = m_(T p), T(i, j) = (ai, aj), at the later of
      p and T p; an involution's pair of cells shares it, and keeps it once.
    - alpha(x)(yz) = (xy)alpha(z) at the later of its index cells (y, z) and
      (x, y), which fix its data cells (ax, m_yz) and (m_xy, az).  A data
      cell still empty puts the pair on a watch list at the later data cell.
    """
    cells = n * n
    # per alpha: alpha, the mult equations (p, T p) each cell completes, the
    # hom-associativity triples each cell completes as (n*ax, yz, xy, az),
    # and each cell's watch list
    records = []
    for al in alphas:
        equations = [[] for _ in range(cells)]
        if mult:
            invol = _invol_witness(al, n) is None
            for p in range(cells):
                q = al[p // n] * n + al[p % n]
                if not invol or q <= p:
                    equations[max(p, q)].append((p, q))
        fire = [[] for _ in range(cells)]
        for x, y, z in itertools.product(range(n), repeat=3):
            yz, xy = y * n + z, x * n + y
            fire[max(yz, xy)].append((al[x] * n, yz, xy, al[z]))
        records.append((al, equations, fire, [[] for _ in range(cells)]))
    m = [0] * cells
    mirror = [(p % n) * n + p // n if p // n > p % n else -1 for p in range(cells)]

    def fill(p, live, tied):
        if p == cells:
            mul = tuple(tuple(m[i : i + n]) for i in range(0, cells, n))
            yield mul, [al for al, _, _, _ in live]
            return
        q = mirror[p] if tied else -1
        for v in range(m[q] if q >= 0 else 0, n):
            m[p] = v
            kept = []
            for rec in live:
                al, equations, fire, watch = rec
                for a, b in equations[p]:
                    if al[m[a]] != m[b]:
                        break
                else:
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
            yield from fill(p + 1, [rec for rec, _ in kept], tied and (q < 0 or v == m[q]))
            for rec, new in kept:
                watch = rec[3]
                for t, _, _ in new:
                    watch[t].pop()

    return fill(0, records, opposite)


def _least(tables, group) -> Iterator[Tuple[tuple, List[tuple]]]:
    """Yield (mul, alphas), the least candidates of their classes, in order.

    ``tables`` yields (mul, alphas) in scan order.  ``group`` holds the
    relabelings, identity first, so the orbits are isomorphism classes.  A
    table is kept when none of its images comes before it, with the alphas
    least among their images under Stab(mul), the relabelings that fix it;
    a stabilizer of the identity alone, as most are, keeps them all.  Most
    images differ from the table in their first row, one lookup; only an
    image that starts with the table's first row is built in full.
    """
    others = group[1:]
    for mul, alphas in tables:
        stab, first = [], mul[0]
        for _, h, image in others:
            row = image[mul[h[0]]]
            if row > first:
                continue
            if row < first:
                break
            table = tuple(image[mul[p]] for p in h)
            if table < mul:
                break
            if table == mul:
                stab.append(image)
        else:
            if stab:
                alphas = [al for al in alphas if all(image[al] >= al for image in stab)]
            yield mul, alphas


def _cycles(t, f) -> List[Tuple[List[int], List[List[int]]]]:
    """The cycles of the map t on range(len(t)), each with its value paths.

    A cycle starts at its least point.  Its paths, each [v, f(v), ...,
    f^(L-1)(v)] with f^L(v) = v for L its length, are the values along the
    cycle of the maps m with m(t p) = f(m(p)).
    """
    on = set(range(len(t)))
    for _ in t:
        on = {t[p] for p in on}
    cycles = []
    while on:
        cycle = [min(on)]
        while t[cycle[-1]] != cycle[0]:
            cycle.append(t[cycle[-1]])
        on.difference_update(cycle)
        paths = [[v] for v in range(len(f))]
        for path in paths:
            while len(path) < len(cycle):
                path.append(f[path[-1]])
        cycles.append((cycle, [path for path in paths if f[path[-1]] == path[0]]))
    return cycles


def _alpha_classes(n) -> List[Tuple[tuple, int]]:
    """(alpha, class size) for the least alpha of each conjugacy class."""
    alphas = itertools.product(range(n), repeat=n)
    images = [(al, {image[al] for _, _, image in _relabelings(n)}) for al in alphas]
    return [(al, len(conjugates)) for al, conjugates in images if min(conjugates) == al]


def _mult_count(alpha) -> int:
    """The tables on which alpha is multiplicative, by the closed form."""
    n = len(alpha)
    t = [alpha[p // n] * n + alpha[p % n] for p in range(n * n)]
    cycles = _cycles(t, alpha)
    on = {p for cycle, _ in cycles for p in cycle}
    children = [[c for c, tc in enumerate(t) if tc == p and c not in on] for p in range(n * n)]
    preimage = [[w for w in range(n) if alpha[w] == u] for u in range(n)]

    def trees(p, u):
        # the fillings of the in-trees of cell p when m_p = u
        return math.prod(sum(trees(c, w) for w in preimage[u]) for c in children[p])

    components = (sum(math.prod(map(trees, c, path)) for path in paths) for c, paths in cycles)
    return math.prod(components)


def _fixed(g, arity) -> Iterator[tuple]:
    """Each map f from range(n)**arity to range(n) with f(g p) = g(f(p)).

    g acts on each coordinate of p, and each f comes flattened row-major.
    """
    points = list(itertools.product(range(len(g)), repeat=arity))
    moved = [points.index(tuple(g[x] for x in p)) for p in points]
    orbits = [[list(zip(orbit, path)) for path in paths] for orbit, paths in _cycles(moved, g)]
    for pick in itertools.product(*orbits):
        f = [0] * len(points)
        for i, v in itertools.chain.from_iterable(pick):
            f[i] = v
        yield tuple(f)


def _constant_count(n, c) -> Tuple[int, int]:
    """Hom-associative tables of the constant alpha c: (m[c][c] == c, not).

    c(yz) = (xy)c separates.  With L row c and R column c, so L[c] = R[c],
    and k_y = L(R(y)), a table is hom-associative exactly when R(L(y)) =
    k_y, L(L(y)) = k_c and R(R(y)) = k_c for every y, and each other cell
    (y, z) holds a u with L(u) = k_y and R(u) = k_z.  So the count is a sum
    over row c and column c of a product of u-counts; n**(2n-1) terms.
    """
    others = [y for y in range(n) if y != c]
    found = [0, 0]
    for row in itertools.product(range(n), repeat=n):
        for rest in itertools.product(range(n), repeat=n - 1):
            col = rest[:c] + (row[c],) + rest[c:]
            k = [row[col[y]] for y in range(n)]
            if all(col[row[y]] == k[y] and row[row[y]] == col[col[y]] == k[c] for y in range(n)):
                u = collections.Counter(zip(row, col))
                found[row[c] == c] += math.prod(u[k[y], k[z]] for y in others for z in others)
    return found[1], found[0]


def _raw_quads(n) -> collections.Counter:
    """The raw counts by (hom, assoc, mult, invol), per alpha class (module docstring)."""
    classes, identity, constant = _alpha_classes(n), tuple(range(n)), (0,) * n
    searched = [al for al, _ in classes if al != constant or al == identity]
    # per alpha: the tables of the search and the semigroups by (hom, assoc, mult)
    seen = {al: collections.Counter() for al, _ in classes}
    for mul, survivors in _lawful_tables(n, searched, False, opposite=True):
        weight = 1 if mul == tuple(zip(*mul)) else 2
        assoc = identity in survivors
        for al in seen if assoc else survivors:
            hom = al in survivors if al in searched else _hom_witness(mul, al, n) is None
            seen[al][hom, assoc, _mult_witness(mul, al, n) is None] += weight
    if constant not in searched:
        buckets = seen[constant]
        for mult, k in zip((True, False), _constant_count(n, 0)):
            buckets[True, False, mult] = k - buckets[True, True, mult]
    quads = collections.Counter()
    for al, size in classes:
        buckets = seen[al]
        buckets[False, False, True] = _mult_count(al) - sum(k for q, k in buckets.items() if q[2])
        buckets[False, False, False] = n ** (n * n) - sum(buckets.values())
        invol = _invol_witness(al, n) is None
        for (hom, assoc, mult), k in buckets.items():
            quads[hom, assoc, mult, invol] += size * k
    return quads


def census(order: int, up_to_iso: bool = False) -> Census:
    """Classify every candidate of the given order against all four laws.

    The counts come per alpha conjugacy class from one pruning search, the
    kernel and two closed forms; with up_to_iso, Burnside's lemma gives the
    classes, its terms classified by _scan (module docstring).
    """
    if not 1 <= order <= 3:
        raise ValueError("census is exhaustive, order must be 1, 2, or 3")
    n, quads = order, _raw_quads(order)
    if up_to_iso:
        # Burnside's lemma over one g per cycle type, weighted by the type's
        # size; the identity's term, the first, is the raw count above
        kinds = collections.defaultdict(list)
        for g, _, _ in _relabelings(n):
            kinds[tuple(sorted(len(cycle) for cycle, _ in _cycles(g, g)))].append(g)
        for g, *conjugates in list(kinds.values())[1:]:
            alphas = list(_fixed(g, 1))
            grids = (tuple(f[i : i + n] for i in range(0, n * n, n)) for f in _fixed(g, 2))
            for _, _, quad in _scan(n, (None,) * 4, ((mul, alphas) for mul in grids)):
                quads[quad] += 1 + len(conjugates)
        for quad, k in quads.items():
            if k % math.factorial(n):
                raise RuntimeError("Burnside sum %d for %s is not a multiple of %d!" % (k, quad, n))
            quads[quad] = k // math.factorial(n)
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

    Law arguments are three-valued: True to require, False to forbid, None to
    ignore.  With up_to_iso only the least relabeling of each isomorphism
    class is yielded.  Orders up to 4 are accepted.  A stream that requires
    hom_associative runs the pruning search, with the alphas that the
    involutive_alpha filter allows, and prunes by multiplicativity too when
    that is required.  At order 4 the streams that require hom_associative
    and involutive_alpha end in seconds: 4,428 lawful structures (276
    classes) with multiplicative required, 8,580 (469 classes) with it
    ignored.  Every other order-4 stream is far longer, so callers bound it
    (the command line tool insists on a filter and a limit at order 4).
    """
    if not 1 <= order <= 4:
        raise ValueError("order must be between 1 and 4")
    if hom_associative is True:
        rows = itertools.product(range(order), repeat=order)
        alphas = [a for a in rows if involutive_alpha in (None, _invol_witness(a, order) is None)]
        source = _lawful_tables(order, alphas, multiplicative is True)
    else:
        source = _every_table(order)
    if up_to_iso:
        source = _least(source, _relabelings(order))
    laws = (hom_associative, associative, multiplicative, involutive_alpha)
    return (FiniteHomMagma(_LABELS[:order], mul, al) for mul, al, _ in _scan(order, laws, source))
