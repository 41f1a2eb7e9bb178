import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invhom.algebra import (
    AlgebraElement,
    add,
    alpha_alg,
    diamond_alg,
    equals,
    scale,
)
from invhom.census import iter_matching
from invhom.expressions import eval_algebra
from invhom.finite import fixture
from invhom.universal import GeneratorAssignment, extend
from invhom.words import Letter, Word, alpha_word, diamond, iter_words, parse_word

letters = st.builds(Letter, st.sampled_from(["x", "y", "z"]), st.integers(0, 1))
words = st.builds(Word, st.lists(letters, min_size=1, max_size=4).map(tuple))
coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=6)
elements = st.lists(st.tuples(words, coeffs), max_size=4).map(AlgebraElement)


def wd(text):
    return AlgebraElement.from_word(parse_word(text))


# ---------------------------------------------------------------- structure

def test_terms_merge_and_zeros_drop():
    w = parse_word("x y")
    a = AlgebraElement([(w, Fraction(1, 2)), (w, Fraction(1, 2))])
    assert a.terms == {w: Fraction(1)}
    b = AlgebraElement([(w, 1), (w, -1)])
    assert b == AlgebraElement.zero()
    assert not b


def test_coefficients_must_be_exact():
    with pytest.raises(TypeError):
        AlgebraElement({parse_word("x"): 0.5})
    with pytest.raises(TypeError):
        AlgebraElement({"x": 1})
    with pytest.raises(TypeError):
        scale(0.5, AlgebraElement.zero())


def test_coefficients_keep_their_exact_type():
    a = eval_algebra("2 . x + y")
    assert {type(c) for c in a.terms.values()} == {int}
    assert {type(c) for c in diamond_alg(a, a - 3 * wd("[x]")).terms.values()} == {int}
    assert [type(c) for c in eval_algebra("1/2 . x").terms.values()] == [Fraction]
    w = parse_word("x")
    assert AlgebraElement({w: True}) == AlgebraElement.from_word(w)
    assert type(AlgebraElement({w: True}).terms[w]) is int


def test_an_integral_fraction_is_stored_as_an_int():
    a = eval_algebra("1/2 . x + 1/2 . x")
    assert a.terms == {parse_word("x"): 1}
    assert [type(c) for c in a.terms.values()] == [int]
    assert [type(c) for c in (a * eval_algebra("2 . y")).terms.values()] == [int]
    assert [type(c) for c in scale(Fraction(4, 2), wd("x")).terms.values()] == [int]
    assert [type(c) for c in scale(2, eval_algebra("1/2 . x")).terms.values()] == [int]
    assert [type(c) for c in AlgebraElement({parse_word("x"): Fraction(3, 3)}).terms.values()] == [int]
    assert str(a) == "x" and str(eval_algebra("3/2 . x + 1/2 . x")) == "2 . x"


def test_difference_of_equal_words_is_zero():
    assert wd("x [y]") - wd("x [y]") == AlgebraElement.zero()


def test_rendering_is_sorted_and_exact():
    e = (
        AlgebraElement.from_word(parse_word("z"), -2)
        + AlgebraElement.from_word(parse_word("x y"), Fraction(5, 6))
        + wd("[y]")
    )
    assert str(e) == "[y] - 2 . z + 5/6 . x y"
    assert str(AlgebraElement.zero()) == "0"
    assert str(-wd("x")) == "-x"
    # letter by letter, name before mark: x z first, where the names alone
    # would put [x] y first; a shorter name before a longer one it begins
    assert str(wd("[x] y") + wd("x z")) == "x z + [x] y"
    assert str(wd("x0 y") + wd("[x] y") + wd("x [y]")) == "x [y] + [x] y + x0 y"


def test_scalar_multiplication_dunders():
    a = wd("x")
    assert 3 * a == a * 3 == scale(3, a)
    assert Fraction(1, 2) * a == scale(Fraction(1, 2), a)
    assert scale(0, a) == AlgebraElement.zero()


def test_product_dunder_is_the_twisted_product():
    assert wd("x") * wd("y") == wd("x y")
    assert wd("x y") * wd("z") == wd("[x] y [z]")


# ---------------------------------------------------------------- vector laws

@given(elements, elements, elements)
def test_addition_is_a_commutative_group(a, b, c):
    assert add(a, b) == add(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert add(a, AlgebraElement.zero()) == a
    assert add(a, -a) == AlgebraElement.zero()


@given(coeffs, coeffs, elements)
def test_scaling_is_an_action(c, d, a):
    assert scale(c, scale(d, a)) == scale(c * d, a)
    assert scale(1, a) == a


def _reference_sum(*pairs):
    """The sum of c·a over (c, a) pairs on plain dicts: zero coefficients
    dropped, an integral value stored as an int."""
    acc = {}
    for c, a in pairs:
        for w, cw in a.terms.items():
            acc[w] = acc.get(w, 0) + c * cw
    return {w: int(v) if v.denominator == 1 else v for w, v in acc.items() if v}


int_elements = st.lists(st.tuples(words, st.integers(-3, 3)), max_size=4).map(AlgebraElement)
scalars = st.integers(-3, 3) | coeffs


@given(elements | int_elements, elements | int_elements, scalars)
def test_sums_and_multiples_match_a_dict_reference(a, b, c):
    for got, want in [
        (add(a, b), _reference_sum((1, a), (1, b))),
        (a + b, _reference_sum((1, a), (1, b))),
        (a - b, _reference_sum((1, a), (-1, b))),
        (-a, _reference_sum((-1, a))),
        (scale(c, a), _reference_sum((c, a))),
        (c * a, _reference_sum((c, a))),
    ]:
        assert got.terms == want
        assert [type(v) for v in got.terms.values()] == [type(v) for v in want.values()]


# ---------------------------------------------------------------- algebra laws

@given(elements, elements, elements, coeffs)
@settings(max_examples=150)
def test_product_is_bilinear(a, b, c, t):
    assert diamond_alg(add(a, b), c) == add(diamond_alg(a, c), diamond_alg(b, c))
    assert diamond_alg(a, add(b, c)) == add(diamond_alg(a, b), diamond_alg(a, c))
    assert diamond_alg(scale(t, a), b) == scale(t, diamond_alg(a, b))
    assert diamond_alg(a, scale(t, b)) == scale(t, diamond_alg(a, b))


@given(elements, coeffs, elements)
def test_alpha_is_linear_and_involutive(a, t, b):
    assert alpha_alg(add(a, scale(t, b))) == add(alpha_alg(a), scale(t, alpha_alg(b)))
    assert alpha_alg(alpha_alg(a)) == a


@given(elements, elements)
@settings(max_examples=150)
def test_alpha_is_multiplicative_on_the_span(a, b):
    assert alpha_alg(diamond_alg(a, b)) == diamond_alg(alpha_alg(a), alpha_alg(b))


@given(elements, elements, elements)
@settings(max_examples=100)
def test_hom_associativity_on_the_span(a, b, c):
    lhs = diamond_alg(alpha_alg(a), diamond_alg(b, c))
    rhs = diamond_alg(diamond_alg(a, b), alpha_alg(c))
    assert equals(lhs, rhs)


# ---------------------------------------------------------------- against Q[T]
# A generator assignment into a lawful finite target T extends linearly to
# F from the span into the semigroup algebra Q[T], and F must be a morphism
# of Hom-associative algebras.  Q[T] is written out here, so this oracle
# shares no code with diamond_alg.


def _image(assign, a):
    """F(a), as a dict from target index to nonzero coefficient."""
    out = {}
    for w, c in a.terms.items():
        t = extend(assign, w)
        out[t] = out.get(t, 0) + c
    return {t: c for t, c in out.items() if c}


def _times(target, f, g):
    out = {}
    for (s, c), (t, d) in itertools.product(f.items(), g.items()):
        st = target.mul[s][t]
        out[st] = out.get(st, 0) + c * d
    return {t: c for t, c in out.items() if c}


def _random_element(rng, terms):
    pairs = []
    for _ in range(terms):
        k = rng.randint(1, 4)
        w = Word(tuple(Letter(rng.choice("xyz"), rng.randint(0, 1)) for _ in range(k)))
        c = rng.randint(-3, 3)
        pairs.append((w, c if rng.random() < 0.5 else Fraction(c, rng.randint(1, 4))))
    return AlgebraElement(pairs)


def test_the_span_maps_into_the_semigroup_algebra_of_a_lawful_target():
    lawful = iter_matching(3, hom_associative=True, multiplicative=True, involutive_alpha=True)
    targets = [fixture("involutive")] + list(itertools.islice(lawful, 0, None, 20))
    for k, target in enumerate(targets):
        rng = random.Random(k)
        assign = GeneratorAssignment(target, {g: rng.randrange(3) for g in "xyz"})
        # two words with one image span a nonzero element that F sends to 0
        seen = {}
        for w in iter_words("xyz", 2):
            u = seen.setdefault(extend(assign, w), w)
            if u != w:
                break
        kernel = AlgebraElement({u: Fraction(3, 2), w: Fraction(-3, 2)})
        assert kernel and not _image(assign, kernel)
        for _ in range(6):
            a, b = _random_element(rng, 4), _random_element(rng, 3)
            for x, y in itertools.product([a, b, a - a, kernel, a + kernel], repeat=2):
                fx, fy = _image(assign, x), _image(assign, y)
                assert _image(assign, x * y) == _times(target, fx, fy)
                assert _image(assign, alpha_alg(x)) == {target.alpha[t]: c for t, c in fx.items()}


# ---------------------------------------------------------------- against M_k(Q)
# Let alpha be conjugation of k by k rational matrices by a diagonal matrix
# of signs.  It is an involutive automorphism of matrix multiplication, so
# the Yau twist M_k(Q) with product alpha(XY) is hom-associative, and alpha
# is multiplicative.  Generators go to any rational matrices; F folds a
# word's letter images in from the right, as extend does, and extends
# linearly to the span.  F must then be a morphism.  Transposing is an
# anti-automorphism, so with it in place of alpha the check must fail.


def _matmul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def _conjugation(signs):
    """X -> DXD, D the diagonal matrix of the signs: entry (i, j) times s_i s_j."""
    return lambda m: tuple(
        tuple(v if s == t else -v for t, v in zip(signs, row)) for s, row in zip(signs, m)
    )


def _transpose(m):
    return tuple(zip(*m))


def _matrix_morphism_failure(alpha, images, rng):
    """The first pair, of words or of span elements, where F breaks
    F(u <> v) = alpha(F(u) F(v)) or F(alpha(u)) = alpha(F(u)), or None."""
    memo = {}

    def f(w):  # F on a word, folded from the right over its letters
        if w not in memo:
            head, *rest = w.letters
            first = alpha(images[head.name]) if head.bit else images[head.name]
            memo[w] = alpha(_matmul(first, f(Word(rest)))) if rest else first
        return memo[w]

    def f_span(a):
        k = len(next(iter(images.values())))
        out = tuple(tuple(Fraction(0) for _ in range(k)) for _ in range(k))
        for w, c in a.terms.items():
            out = tuple(tuple(s + c * t for s, t in zip(r, q)) for r, q in zip(out, f(w)))
        return out

    words = list(iter_words(sorted(images), 3))
    for u, v in itertools.product(words, repeat=2):
        if f(diamond(u, v)) != alpha(_matmul(f(u), f(v))) or f(alpha_word(u)) != alpha(f(u)):
            return (u, v)
    for _ in range(4):
        a, b = (AlgebraElement([(rng.choice(words), Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                                for _ in range(3)]) for _ in range(2))
        if f_span(diamond_alg(a, b)) != alpha(_matmul(f_span(a), f_span(b))):
            return (a, b)
        if f_span(alpha_alg(a)) != alpha(f_span(a)):
            return (a, b)
    return None


_MATRIX_TARGETS = [  # (signs of the diagonal, images of x and y)
    ((1, -1), {
        "x": ((1, Fraction(1, 2)), (-2, 3)),
        "y": ((0, -1), (Fraction(2, 3), 1)),
    }),
    ((1, -1, -1), {
        "x": ((1, Fraction(1, 2), 0), (-2, 3, Fraction(-1, 3)), (0, 1, 1)),
        "y": ((0, -1, 2), (Fraction(2, 3), 1, 0), (1, 0, Fraction(5, 4))),
    }),
]


@pytest.mark.parametrize("signs, images", _MATRIX_TARGETS, ids=["M2", "M3"])
def test_the_span_maps_into_a_twisted_matrix_algebra(signs, images):
    rng = random.Random(len(signs))
    assert _matrix_morphism_failure(_conjugation(signs), images, rng) is None
    # the negative control: transposing reverses products, and the check sees it
    assert _matrix_morphism_failure(_transpose, images, rng) is not None
