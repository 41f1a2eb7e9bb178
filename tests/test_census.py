import collections
import functools
import importlib
import itertools
import json
import math
import operator
import tracemalloc
from pathlib import Path

import pytest

from invhom.census import (
    Census,
    _alpha_classes,
    _constant_count,
    _every_table,
    _fixed,
    _lawful_tables,
    _least,
    _mult_count,
    _relabelings,
    _scan,
    canonical_form,
    census,
    iter_matching,
)
from invhom.cli import main
from invhom.finite import FiniteHomMagma, classify, fixture, relabel, structure_to_dict
from invhom.finite import _invol_witness, _mult_witness

# frozen counts for order 2, keyed (hom, assoc, mult, invol)
ORDER2_COUNTS = {
    (False, False, False, False): 10,
    (False, False, False, True): 6,
    (False, False, True, False): 4,
    (False, False, True, True): 8,
    (False, True, False, False): 2,
    (False, True, False, True): 2,
    (False, True, True, False): 8,
    (False, True, True, True): 2,
    (True, False, False, False): 2,
    (True, False, False, True): 0,
    (True, False, True, False): 0,
    (True, False, True, True): 2,
    (True, True, False, False): 2,
    (True, True, False, True): 4,
    (True, True, True, False): 4,
    (True, True, True, True): 8,
}


# frozen counts for order 3, raw and up to isomorphism, from a brute-force
# census that shares no code with the package
ORDER3_RAW = {
    (False, False, False, False): 427338,
    (False, False, False, True): 58488,
    (False, False, True, False): 20185,
    (False, False, True, True): 19762,
    (False, True, False, False): 1788,
    (False, True, False, True): 246,
    (False, True, True, False): 367,
    (False, True, True, True): 24,
    (True, False, False, False): 1920,
    (True, False, False, True): 6,
    (True, False, True, False): 667,
    (True, False, True, True): 24,
    (True, True, False, False): 288,
    (True, True, False, True): 66,
    (True, True, True, False): 156,
    (True, True, True, True): 116,
}
ORDER3_ISO = {
    (False, False, False, False): 71223,
    (False, False, False, True): 9748,
    (False, False, True, False): 3413,
    (False, False, True, True): 3370,
    (False, True, False, False): 298,
    (False, True, False, True): 41,
    (False, True, True, False): 65,
    (False, True, True, True): 8,
    (True, False, False, False): 320,
    (True, False, False, True): 1,
    (True, False, True, False): 115,
    (True, False, True, True): 8,
    (True, True, False, False): 48,
    (True, True, False, True): 11,
    (True, True, True, False): 28,
    (True, True, True, True): 25,
}


def test_order_one_census_is_trivial():
    c = census(1)
    assert c.total_candidates == 1
    assert c.counts[(True, True, True, True)] == 1
    assert sum(c.counts.values()) == 1


def test_order_two_census_matches_frozen_counts():
    c = census(2)
    assert c.total_candidates == 64
    assert sum(c.counts.values()) == 64
    assert dict(c.counts) == ORDER2_COUNTS


def test_order_two_law_counts():
    c = census(2)
    assert c.law_count(hom_associative=True) == 22
    assert c.law_count(hom_associative=True, multiplicative=True) == 14
    assert (
        c.law_count(
            hom_associative=True, multiplicative=True, involutive_alpha=True
        )
        == 10
    )


def test_census_rejects_large_orders():
    with pytest.raises(ValueError):
        census(0)
    with pytest.raises(ValueError):
        census(4)
    with pytest.raises(ValueError):
        iter_matching(5)


def test_stream_agrees_with_census():
    found = sum(1 for _ in iter_matching(2, hom_associative=True))
    assert found == 22
    found = sum(
        1
        for _ in iter_matching(
            2, hom_associative=True, multiplicative=True, involutive_alpha=True
        )
    )
    assert found == 10


def test_stream_is_deterministic_and_starts_at_the_constant_table():
    first = next(iter(iter_matching(2)))
    assert first.labels == ("a", "b")
    assert first.mul == ((0, 0), (0, 0))
    assert first.alpha == (0, 0)


def test_stream_results_carry_the_requested_laws():
    for m in itertools.islice(iter_matching(2, associative=False), 5):
        r = classify(m)
        assert not r.associative


def test_canonical_form_is_relabel_invariant():
    m = fixture("involutive")
    base = canonical_form(m.mul, m.alpha)
    for perm in itertools.permutations(range(3)):
        moved = relabel(m, perm)
        assert canonical_form(moved.mul, moved.alpha) == base
    other = fixture("hom_not_sg")
    assert canonical_form(other.mul, other.alpha) != base


def test_iso_census_counts_classes():
    # independent grouping: bucket all 64 candidates by canonical form
    classes = {}
    for mul in itertools.product(itertools.product((0, 1), repeat=2), repeat=2):
        for al in itertools.product((0, 1), repeat=2):
            classes.setdefault(canonical_form(mul, al), None)
    c = census(2, up_to_iso=True)
    assert sum(c.counts.values()) == len(classes)
    assert c.total_candidates == 64

    # every class representative from the stream is lexicographically least
    reps = list(iter_matching(2, up_to_iso=True))
    assert len(reps) == len(classes)
    for m in reps:
        flat = (
            tuple(m.mul[i][j] for i in range(2) for j in range(2)),
            m.alpha,
        )
        assert flat == canonical_form(m.mul, m.alpha)


def test_iso_and_raw_censuses_are_consistent():
    raw = census(2)
    iso = census(2, up_to_iso=True)
    for quad, k in iso.counts.items():
        # a class of order-2 structures has at most 2 members
        assert k <= raw.counts[quad] <= 2 * k


def _involutions(order):
    alphas = itertools.product(range(order), repeat=order)
    return [al for al in alphas if _invol_witness(al, order) is None]


# no filter in _scan
ANY = (None,) * 4


def _walk(order, up_to_iso=False):
    # every candidate as _scan takes it, through the relabeling orbit walk for
    # up_to_iso
    source = _every_table(order)
    return _least(source, _relabelings(order)) if up_to_iso else source


@functools.lru_cache(maxsize=None)
def _stabilizer(mul):
    # the relabelings that fix the table, by relabel
    n = len(mul)
    m = FiniteHomMagma("abcd"[:n], mul, (0,) * n)
    return tuple(g for g in itertools.permutations(range(n)) if relabel(m, g).mul == mul)


def _least_alphas(mul, alphas):
    # the alphas least among their images under the table's stabilizer, whose
    # first member, the identity, leaves every alpha alone
    labels, others = "abcd"[: len(mul)], _stabilizer(mul)[1:]
    return [
        al
        for al in alphas
        if all(relabel(FiniteHomMagma(labels, mul, al), g).alpha >= al for g in others)
    ]


def _order2_candidates():
    # scan order: product tables row-major, alpha tables innermost
    rows = list(itertools.product((0, 1), repeat=2))
    for mul in itertools.product(rows, repeat=2):
        for al in rows:
            r = classify(FiniteHomMagma(("a", "b"), mul, al))
            quad = (
                r.hom_associative,
                r.associative,
                r.multiplicative,
                r.involutive_alpha,
            )
            flat = (tuple(v for row in mul for v in row), al)
            yield mul, al, quad, flat == canonical_form(mul, al)


ORDER2 = list(_order2_candidates())


@pytest.mark.parametrize("up_to_iso", [False, True])
def test_stream_honours_every_filter_combination(up_to_iso):
    for wanted in itertools.product((None, False, True), repeat=4):
        expected = [
            (mul, al)
            for mul, al, quad, canonical in ORDER2
            if all(w is None or w == q for w, q in zip(wanted, quad))
            and (canonical or not up_to_iso)
        ]
        stream = iter_matching(2, *wanted, up_to_iso=up_to_iso)
        assert [(m.mul, m.alpha) for m in stream] == expected, wanted


@pytest.mark.parametrize("up_to_iso", [False, True])
def test_census_buckets_match_classify(up_to_iso):
    expected = {q: 0 for q in itertools.product((False, True), repeat=4)}
    for _, _, quad, canonical in ORDER2:
        if canonical or not up_to_iso:
            expected[quad] += 1
    assert census(2, up_to_iso=up_to_iso).counts == expected


@pytest.mark.parametrize(
    "up_to_iso, expected", [(False, ORDER3_RAW), (True, ORDER3_ISO)]
)
def test_order_three_census_matches_frozen_counts(up_to_iso, expected):
    c = census(3, up_to_iso=up_to_iso)
    assert c.total_candidates == 531441
    assert c.counts == expected


def test_enum_order_three_up_to_iso(capsys):
    assert main(["enum", "--order", "3", "--up-to-iso"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "order 3 census: 531441 candidates, 88722 isomorphism classes"
    rows = [line.split() for line in lines[2:]]
    assert len(rows) == 16
    assert {tuple(c == "yes" for c in r[:4]): int(r[4]) for r in rows} == ORDER3_ISO


@pytest.mark.parametrize("order", [1, 2])
def test_iso_census_equals_the_canonical_least_raw_candidates(order):
    # neither canonical_form nor the unweighted raw scan uses a stabilizer
    brute = collections.Counter(
        quad
        for mul, al, quad in _scan(order, ANY, _walk(order))
        if (sum(mul, ()), al) == canonical_form(mul, al)
    )
    counts = census(order, up_to_iso=True).counts
    assert {q: k for q, k in counts.items() if k} == dict(brute)


@pytest.mark.parametrize(
    "laws",
    [
        dict(hom_associative=True),
        dict(hom_associative=True, multiplicative=True, involutive_alpha=True),
        dict(hom_associative=True, associative=False),
    ],
)
def test_order_three_iso_stream_is_the_canonical_part_of_the_raw_stream(laws):
    raw = [(m.mul, m.alpha) for m in iter_matching(3, **laws)]
    expected = [
        (mul, al) for mul, al in raw if (sum(mul, ()), al) == canonical_form(mul, al)
    ]
    stream = [(m.mul, m.alpha) for m in iter_matching(3, up_to_iso=True, **laws)]
    assert stream == expected
    names = ("hom_associative", "associative", "multiplicative", "involutive_alpha")
    wanted = [laws.get(name) for name in names]
    buckets = [
        q for q in ORDER3_RAW if all(w is None or w == v for w, v in zip(wanted, q))
    ]
    assert len(raw) == sum(ORDER3_RAW[q] for q in buckets)
    assert len(stream) == sum(ORDER3_ISO[q] for q in buckets)


@pytest.mark.parametrize("order, orbits", [(1, 1), (2, 10), (3, 3330)])
def test_table_orbits_cover_every_table_once(order, orbits):
    # the orbit counts are the magmas up to isomorphism, OEIS A001329
    found = list(_least(_every_table(order), _relabelings(order)))
    assert len(found) == orbits
    weights = (math.factorial(order) // len(_stabilizer(table)) for table, _ in found)
    assert sum(weights) == order ** (order * order)
    tables = [table for table, _ in found]
    assert tables == sorted(tables)
    rows = list(itertools.product(range(order), repeat=order))
    assert all(alphas == _least_alphas(table, rows) for table, alphas in found)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_each_orbit_starts_at_its_least_relabel_image(order):
    labels, alpha = "abc"[:order], (0,) * order
    group = list(itertools.permutations(range(order)))
    rows = list(itertools.product(range(order), repeat=order))
    for table, alphas in _least(_every_table(order), _relabelings(order)):
        m = FiniteHomMagma(labels, table, alpha)
        images = {relabel(m, g).mul for g in group}
        assert min(images) == table
        assert len(images) == len(group) // len(_stabilizer(table))
        assert alphas == _least_alphas(table, rows)


@pytest.mark.parametrize("order, orbits", [(1, 1), (2, 7), (3, 32)])
def test_orbit_walk_of_the_lawful_search_keeps_the_lawful_least_tables(order, orbits):
    scan = _scan(order, (True, None, True, True), _walk(order))
    lawful = {mul for mul, _, _ in scan}
    expected = [mul for mul, _ in _walk(order, True) if mul in lawful]
    found = list(_least(_lawful_tables(order, _involutions(order), True), _relabelings(order)))
    assert [mul for mul, _ in found] == expected
    assert len(found) == orbits
    leaves = {mul: alphas for mul, alphas in _lawful_tables(order, _involutions(order), True)}
    assert all(alphas == _least_alphas(mul, leaves[mul]) for mul, alphas in found)


def test_orbit_walk_keeps_only_least_tables_of_a_source_missing_one():
    # dropping a least table leaves the rest of its orbit in the source, and
    # those tables are still not least
    tables = list(_every_table(2))
    least = list(_least(iter(tables), _relabelings(2)))
    assert all(alphas == _least_alphas(mul, tables[0][1]) for mul, alphas in least)
    for i in range(len(tables)):
        source = iter(tables[:i] + tables[i + 1 :])
        found = list(_least(source, _relabelings(2)))
        assert found == [(mul, alphas) for mul, alphas in least if mul != tables[i][0]]


def test_orbit_walk_past_its_skip_bound_still_finds_the_least_tables():
    # the first 2,000 order-4 tables have over 40,000 later relabel images;
    # the walk keeps none of them from one table to the next
    tables = list(itertools.islice(_every_table(4), 2000))
    tracemalloc.start()
    try:
        found = [mul for mul, _ in _least(iter(tables), _relabelings(4))]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    zero = (0,) * 4
    least = [mul for mul, _ in tables if canonical_form(mul, zero)[0] == sum(mul, ())]
    assert found == least and len(least) == 1852


def _laws(mul, al):
    r = classify(FiniteHomMagma("abc"[: len(al)], mul, al))
    return r.hom_associative, r.associative, r.multiplicative, r.involutive_alpha


def _opposite(mul):
    # the opposite product, mul(y, x) at (x, y)
    return tuple(zip(*mul))


@pytest.mark.parametrize("order", [1, 2, 3])
def test_every_law_holds_exactly_when_it_holds_for_the_opposite_product(order):
    # every candidate at orders 1 and 2; at order 3, every alpha on the least
    # table of each orbit under relabeling, which keeps every law and commutes
    # with the opposite product
    if order < 3:
        tables = [mul for mul, _ in _every_table(order)]
    else:
        tables = [mul for mul, _ in _least(_every_table(order), _relabelings(order))]
        assert len(tables) == 3330
    for mul in tables:
        for al in itertools.product(range(order), repeat=order):
            assert _laws(_opposite(mul), al) == _laws(mul, al), (mul, al)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_census_equals_the_scan_of_the_relabeling_walk(order):
    # the relabeling orbit walk keeps one candidate per isomorphism class, and
    # its least tables with every alpha, each weighted n!/|Stab|, are the raw
    # candidates; no opposite product
    walk, rows = list(_walk(order, True)), list(itertools.product(range(order), repeat=order))
    raw, iso = collections.Counter(), collections.Counter()
    for mul, _, quad in _scan(order, ANY, ((mul, rows) for mul, _ in walk)):
        raw[quad] += math.factorial(order) // len(_stabilizer(mul))
    iso.update(quad for _, _, quad in _scan(order, ANY, walk))
    assert all(alphas == _least_alphas(mul, rows) for mul, alphas in walk)
    for up_to_iso, quads in ((False, raw), (True, iso)):
        counts = census(order, up_to_iso=up_to_iso).counts
        assert {q: k for q, k in counts.items() if k} == dict(quads)
    if order == 3:
        assert raw == ORDER3_RAW and dict(iso) == ORDER3_ISO


@pytest.mark.parametrize("order", [1, 2, 3])
def test_orbit_weighted_census_equals_the_brute_force_scan(order):
    brute = collections.Counter(
        map(
            operator.itemgetter(2),
            _scan(order, ANY, _walk(order)),
        )
    )
    counts = census(order).counts
    assert {q: k for q, k in counts.items() if k} == dict(brute)


@pytest.mark.parametrize("order, classes", [(1, 1), (2, 3), (3, 7), (4, 19)])
def test_alpha_classes_hold_each_alpha_once(order, classes):
    # the maps of range(n) to itself up to conjugacy, OEIS A001372
    found = _alpha_classes(order)
    assert len(found) == classes
    assert sum(size for _, size in found) == order**order
    labels, table = "abcd"[:order], ((0,) * order,) * order
    group = list(itertools.permutations(range(order)))
    for al, size in found:
        conjugates = {relabel(FiniteHomMagma(labels, table, al), g).alpha for g in group}
        assert min(conjugates) == al and len(conjugates) == size
    assert (tuple(range(order)), 1) in found


FROZEN_RAW = {1: {(True, True, True, True): 1}, 2: ORDER2_COUNTS, 3: ORDER3_RAW}


@pytest.mark.parametrize("order", [1, 2, 3])
def test_closed_form_counts_the_multiplicative_tables_of_every_alpha(order):
    tables = [mul for mul, _ in _every_table(order)]
    total = 0
    for al in itertools.product(range(order), repeat=order):
        brute = sum(_mult_witness(mul, al, order) is None for mul in tables)
        assert _mult_count(al) == brute, al
        total += brute
    assert total == sum(k for quad, k in FROZEN_RAW[order].items() if quad[2])


def _grid(flat, order):
    return tuple(flat[i : i + order] for i in range(0, order * order, order))


@pytest.mark.parametrize("order", [2, 3])
def test_fixed_candidates_are_those_relabeling_leaves_alone(order):
    labels, rows = "abc"[:order], list(itertools.product(range(order), repeat=order))
    magmas = [FiniteHomMagma(labels, mul, rows[0]) for mul, _ in _every_table(order)]
    for g in itertools.permutations(range(order)):
        tables = sorted(_grid(flat, order) for flat in _fixed(g, 2))
        assert tables == [m.mul for m in magmas if relabel(m, g).mul == m.mul], g
        alphas = sorted(_fixed(g, 1))
        assert alphas == [
            al for al in rows if relabel(FiniteHomMagma(labels, magmas[0].mul, al), g).alpha == al
        ], g


def test_census_runs_the_law_kernel_on_few_candidates(monkeypatch):
    # the search decides hom-associativity for the raw census, on one table of
    # each opposite pair; the kernel sorts its leaves and its 88 semigroups,
    # decides the constant alpha on those, and classifies the 324 order-3
    # candidates that a transposition or a 3-cycle fixes
    module, calls = importlib.import_module("invhom.census"), collections.Counter()
    for name in ("_hom_witness", "_assoc_witness", "_mult_witness"):

        def counted(*args, law=getattr(module, name), name=name):
            calls[name] += 1
            return law(*args)

        monkeypatch.setattr(module, name, counted)
    for up_to_iso, frozen, hom in ((False, ORDER3_RAW, 88), (True, ORDER3_ISO, 412)):
        calls.clear()
        assert census(3, up_to_iso=up_to_iso).counts == frozen
        assert sum(calls.values()) <= 2000 and calls["_hom_witness"] == hom


@pytest.mark.parametrize("order", [2, 3])
def test_constant_alpha_closed_form_counts_the_search_leaves(order):
    # the search with the constant alpha alone, its leaves split by
    # multiplicativity, against the closed form over row c and column c
    for c in range(order):
        constant = (c,) * order
        leaves = _lawful_tables(order, [constant], False)
        mult = [_mult_witness(mul, constant, order) is None for mul, _ in leaves]
        assert _constant_count(order, c) == (sum(mult), len(mult) - sum(mult)), c


@pytest.mark.parametrize("mult", [False, True])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_opposite_halving_keeps_one_table_of_each_opposite_pair(order, mult):
    # the kept leaves and their transposes are the full leaves, each once, with
    # the same survivors; a symmetric table is kept once
    rows = list(itertools.product(range(order), repeat=order))
    for alphas in (rows, [al for al, _ in _alpha_classes(order)], _involutions(order)):
        full = dict(_lawful_tables(order, alphas, mult))
        kept = dict(_lawful_tables(order, alphas, mult, opposite=True))
        mirrored = {_opposite(mul): survivors for mul, survivors in kept.items()}
        assert {**kept, **mirrored} == full
        assert all(mul == _opposite(mul) for mul in kept.keys() & mirrored.keys())
        assert list(kept) == [mul for mul in full if mul in kept]


LAWFUL = dict(hom_associative=True, multiplicative=True, involutive_alpha=True)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_lawful_search_leaves_are_exactly_the_lawful_candidates(order):
    # the search alone, without the final law check in the scan loop
    leaves = list(_lawful_tables(order, _involutions(order), True))
    found = [(mul, al) for mul, alphas in leaves for al in alphas]
    walk = _scan(order, (True, None, True, True), _walk(order))
    assert found == [(mul, al) for mul, al, _ in walk]


@pytest.mark.parametrize("up_to_iso", [False, True])
@pytest.mark.parametrize("assoc", [None, True, False])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_lawful_stream_equals_the_table_walk_in_order(order, assoc, up_to_iso):
    walk = _scan(order, (True, assoc, True, True), _walk(order, up_to_iso))
    expected = [(mul, al) for mul, al, _ in walk]
    stream = iter_matching(order, associative=assoc, up_to_iso=up_to_iso, **LAWFUL)
    assert [(m.mul, m.alpha) for m in stream] == expected
    if order == 3:
        # 140 raw candidates and 33 classes when assoc is None
        frozen = ORDER3_ISO if up_to_iso else ORDER3_RAW
        buckets = [(True, a, True, True) for a in (False, True) if assoc in (None, a)]
        assert len(expected) == sum(frozen[q] for q in buckets)


@pytest.fixture(scope="module")
def hom_walks():
    # the hom-associative candidates of the walk over every table, in order,
    # with their law quadruples: raw and up to isomorphism at orders 2 and 3
    return {
        (order, up_to_iso): list(_scan(order, (True, None, None, None), _walk(order, up_to_iso)))
        for order in (2, 3)
        for up_to_iso in (False, True)
    }


@pytest.mark.parametrize("up_to_iso", [False, True])
@pytest.mark.parametrize("order", [2, 3])
def test_every_hom_filter_set_streams_the_table_walk_in_order(order, up_to_iso, hom_walks):
    # all 27 settings of assoc, mult and invol with hom required go through
    # the search
    walk = hom_walks[order, up_to_iso]
    for laws in itertools.product((None, True, False), repeat=3):
        expected = [
            (mul, al)
            for mul, al, quad in walk
            if all(w is None or w == q for w, q in zip(laws, quad[1:]))
        ]
        stream = iter_matching(order, True, *laws, up_to_iso=up_to_iso)
        assert [(m.mul, m.alpha) for m in stream] == expected, laws
    if order == 3:
        frozen = ORDER3_ISO if up_to_iso else ORDER3_RAW
        assert len(walk) == sum(k for q, k in frozen.items() if q[0])


@pytest.mark.parametrize("mult", [False, True])
@pytest.mark.parametrize("order", [2, 3])
def test_search_leaves_are_exactly_the_lawful_candidates_of_any_alpha(order, mult, hom_walks):
    # every alpha, not only the involutions; a leaf's survivors are all the
    # alphas that make it lawful, before any law check in the scan loop
    alphas = list(itertools.product(range(order), repeat=order))
    leaves = _lawful_tables(order, alphas, mult)
    found = [(mul, al) for mul, survivors in leaves for al in survivors]
    walk = hom_walks[order, False]
    assert found == [(mul, al) for mul, al, quad in walk if quad[2] or not mult]


@pytest.fixture(scope="module")
def order4_lawful():
    return list(iter_matching(4, **LAWFUL))


GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "census_golden.json"


def test_order_four_lawful_stream_is_frozen(order4_lawful):
    # the golden lines come from a brute-force walk that shares no code with
    # the package
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["stream"]["4"]
    lines = [
        json.dumps(structure_to_dict(m), separators=(",", ":")) for m in order4_lawful[:100]
    ]
    assert lines == golden
    assert len(order4_lawful) == 4428
    assert sum(classify(m).associative for m in order4_lawful) == 3612
    candidates = [(m.mul, m.alpha) for m in order4_lawful]
    assert candidates == sorted(set(candidates))


def test_order_four_iso_stream_is_the_canonical_part_of_the_raw_stream(order4_lawful):
    # two routes to the classes: the stabilizer test against canonical_form
    expected = [
        (m.mul, m.alpha)
        for m in order4_lawful
        if (sum(m.mul, ()), m.alpha) == canonical_form(m.mul, m.alpha)
    ]
    stream = [(m.mul, m.alpha) for m in iter_matching(4, up_to_iso=True, **LAWFUL)]
    assert stream == expected
    assert len(stream) == 276


def test_order_four_iso_stream_of_every_table_is_the_canonical_part_of_the_raw_stream():
    # a filter set that walks every table: the first 100 classes against the
    # raw stream up to the 100th of them
    laws = dict(hom_associative=True, involutive_alpha=True)
    raw, expected = 0, []
    for m in iter_matching(4, **laws):
        raw += 1
        if (sum(m.mul, ()), m.alpha) == canonical_form(m.mul, m.alpha):
            expected.append((m.mul, m.alpha))
            if len(expected) == 100:
                break
    stream = itertools.islice(iter_matching(4, up_to_iso=True, **laws), 100)
    assert [(m.mul, m.alpha) for m in stream] == expected
    assert raw == 178
    # 7 of their 22 tables are fixed by more than the identity, so the
    # stabilizer test on the alphas runs
    group, alpha = list(itertools.permutations(range(4))), (0,) * 4
    tables = {mul for mul, _ in expected}
    fixed = [
        mul
        for mul in tables
        if sum(relabel(FiniteHomMagma("abcd", mul, alpha), g).mul == mul for g in group) > 1
    ]
    assert (len(tables), len(fixed)) == (22, 7)


def test_invhom_census_is_the_function_and_the_module_has_two_routes():
    # the package attribute hides the submodule of the same name
    import invhom
    import invhom.census as bound

    module = importlib.import_module("invhom.census")
    assert bound is invhom.census is census is module.census
    assert module.__name__ == "invhom.census" and module._least is _least
