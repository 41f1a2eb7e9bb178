import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invhom import universal
from invhom.census import iter_matching
from invhom.finite import FiniteHomMagma, adjoin_zero, fixture
from invhom.universal import (
    GeneratorAssignment,
    extend,
    verify_morphism,
    verify_uniqueness,
)
from invhom.words import Letter, Word, alpha_word, diamond, iter_words, parse_word


def swap_assignment(**mapping):
    return GeneratorAssignment.from_labels(fixture("involutive"), mapping)


letters = st.builds(Letter, st.sampled_from(["x", "y"]), st.integers(0, 1))
words = st.builds(Word, st.lists(letters, min_size=1, max_size=7).map(tuple))


# ---------------------------------------------------------------- targets

def test_target_laws_are_enforced():
    # alpha of the first fixture is constant, so not an involution
    with pytest.raises(ValueError, match="involution"):
        GeneratorAssignment(fixture("hom_not_sg"), {"x": 0})
    # zero adjunction also yields a non-involutive alpha
    sg = FiniteHomMagma(("a", "b"), ((0, 0), (1, 1)), (0, 1))
    with pytest.raises(ValueError, match="involution"):
        GeneratorAssignment(adjoin_zero(sg), {"x": 0})
    # right-zero product with a constant alpha is not hom-associative
    m = FiniteHomMagma(("a", "b"), ((0, 1), (0, 1)), (0, 0))
    with pytest.raises(ValueError, match="hom-associative"):
        GeneratorAssignment(m, {"x": 0})


def test_images_must_be_indices():
    with pytest.raises(ValueError):
        GeneratorAssignment(fixture("involutive"), {"x": 3})
    with pytest.raises(ValueError):
        GeneratorAssignment(fixture("involutive"), {"x": "x"})


def test_a_bad_generator_name_keeps_its_error_text():
    with pytest.raises(ValueError) as info:
        GeneratorAssignment(fixture("involutive"), {"x": 0, "1x": 0})
    assert str(info.value) == "bad generator name '1x': need [A-Za-z_][A-Za-z0-9_]*"


# ---------------------------------------------------------------- extension

def test_extend_base_case_twists_by_alpha():
    f = swap_assignment(x="x", y="z")
    assert extend(f, parse_word("x")) == 0
    assert extend(f, parse_word("[x]")) == 1
    assert extend(f, parse_word("y")) == 2
    assert extend(f, parse_word("[y]")) == 2


def test_extend_folds_from_the_right():
    f = swap_assignment(x="x", y="y")
    m = fixture("involutive")
    # x [y] x maps to f(x) * (alpha(f(y)) * f(x))
    inner = m.mul[m.alpha[1]][0]
    assert extend(f, parse_word("x [y] x")) == m.mul[0][inner]


def test_extend_requires_every_generator_mapped():
    f = swap_assignment(x="x")
    with pytest.raises(ValueError, match="'y'"):
        extend(f, parse_word("x y"))
    # the leftmost unmapped generator is the one reported
    with pytest.raises(ValueError, match="'y'"):
        extend(f, parse_word("x y z"))


def test_extend_handles_very_long_words():
    # x * y = -(x + y) and alpha(x) = -x on Z/3: lawful, and not associative,
    # so the direction of the fold shows in the result
    table = tuple(tuple(-(i + j) % 3 for j in range(3)) for i in range(3))
    m = FiniteHomMagma(("0", "1", "2"), table, (0, 2, 1))
    f = GeneratorAssignment(m, {"x": 1, "y": 2})
    rng = random.Random(20000)
    letters = tuple(Letter(rng.choice("xy"), rng.randint(0, 1)) for _ in range(20000))
    # plain right fold: letter images, then multiply in from the right
    imgs = [m.alpha[f.mapping[l.name]] if l.bit else f.mapping[l.name] for l in letters]
    img = imgs[-1]
    for left in imgs[-2::-1]:
        img = m.mul[left][img]
    assert extend(f, Word(letters)) == img


@given(words, words)
@settings(max_examples=200)
def test_extension_is_a_morphism(u, v):
    f = swap_assignment(x="x", y="y")
    m = f.target
    assert extend(f, diamond(u, v)) == m.mul[extend(f, u)][extend(f, v)]
    assert extend(f, alpha_word(u)) == m.alpha[extend(f, u)]


@pytest.fixture(scope="module")
def order4_classes():
    # the 276 order-4 lawful classes, each as its least relabeling
    lawful = dict(hom_associative=True, multiplicative=True, involutive_alpha=True)
    return list(iter_matching(4, up_to_iso=True, **lawful))


# assignments of x and y into the order-4 classes
ORDER4_MAPPINGS = ({"x": 0, "y": 3}, {"x": 3, "y": 1})


def test_extend_is_the_twisted_product_of_the_masked_images(order4_classes):
    # an oracle with no fold: the words are the Yau twist of concatenation by
    # the mask (words.py), and on a lawful target mu = alpha . mul is
    # associative, so extend(w) is the mu-product of alpha^(bit xor c)(image)
    # over the letters of w, c the mask of its length, in any bracketing
    masks = ["0"]  # c_1 = 0 and c_(k+1) = 1 followed by the complement of c_k
    while len(masks) < 4:
        masks.append("1" + masks[-1].translate(str.maketrans("01", "10")))
    words = list(iter_words(["x", "y"], 4))
    plans = [  # (generator, whether alpha applies) per letter
        [(l.name, l.bit != int(c)) for l, c in zip(w.letters, masks[len(w) - 1])]
        for w in words
    ]
    assert (len(order4_classes), len(words)) == (276, 340)
    rng = random.Random(2)
    for m in order4_classes:
        mu = [[m.alpha[p] for p in row] for row in m.mul]
        for mapping in ORDER4_MAPPINGS:
            f = GeneratorAssignment(m, mapping)
            for w, plan in zip(words, plans):
                factors = [m.alpha[mapping[n]] if twist else mapping[n] for n, twist in plan]
                while len(factors) > 1:  # multiply a random adjacent pair
                    k = rng.randrange(len(factors) - 1)
                    factors[k:k + 2] = [mu[factors[k]][factors[k + 1]]]
                assert extend(f, w) == factors[0]


# ---------------------------------------------------------------- verifiers

def test_verifiers_pass_on_every_order_four_lawful_class(order4_classes):
    for m in order4_classes:
        for mapping in ORDER4_MAPPINGS:
            f = GeneratorAssignment(m, mapping)
            assert verify_morphism(f, max_len=4, samples=10, seed=1) is None, (m, mapping)
            assert verify_uniqueness(f, max_len=3) is None, (m, mapping)


def test_verify_morphism_passes_on_a_true_assignment():
    f = swap_assignment(x="x", y="z")
    assert verify_morphism(f, max_len=5, samples=300, seed=7) is None
    with pytest.raises(ValueError, match="no generators"):
        verify_morphism(swap_assignment())


def test_verify_morphism_catches_a_corrupted_base_case(monkeypatch):
    # drop the alpha twist on marked letters and the morphism laws break
    def crooked(assign, w):
        head = w.letters[0]
        img = assign.mapping[head.name]
        if len(w.letters) == 1:
            return img
        return assign.target.mul[img][crooked(assign, Word(w.letters[1:]))]

    monkeypatch.setattr(universal, "extend", crooked)
    f = swap_assignment(x="x", y="y")
    assert verify_morphism(f, max_len=5, samples=300, seed=7) is not None


def test_verify_morphism_is_deterministic():
    f = swap_assignment(x="y", y="z")
    a = verify_morphism(f, max_len=4, samples=50, seed=3)
    b = verify_morphism(f, max_len=4, samples=50, seed=3)
    assert a == b is None


def test_verify_uniqueness_on_fixture_assignments():
    for lab_x in ("x", "y", "z"):
        for lab_y in ("x", "y", "z"):
            f = swap_assignment(x=lab_x, y=lab_y)
            assert verify_uniqueness(f, max_len=4) is None


def test_verify_uniqueness_cap():
    f = swap_assignment(x="x")
    with pytest.raises(ValueError):
        verify_uniqueness(f, max_len=6)


def test_split_factorizations_recover_the_word():
    # the factorization used by the uniqueness check really is a product
    from invhom.words import _split, alpha_power, iter_words

    for w in iter_words(["x", "y"], 5):
        for s in range(1, len(w)):
            head = tuple(l.flipped() for l in w.letters[: s - 1])
            u = Word(head + (w.letters[s - 1],))
            v = alpha_power(Word(w.letters[s:]), s - 1)
            assert diamond(u, v) == w
            assert _split(w, s) == (u, v)
    rng = random.Random(2000)
    for n in (63, 64, 65, 2000):
        w = Word(tuple(Letter(rng.choice("xy"), rng.randint(0, 1)) for _ in range(n)))
        for s in range(1, n) if n < 100 else rng.sample(range(1, n), 100) + [1, n - 1]:
            u, v = _split(w, s)
            assert (len(u), len(v)) == (s, n - s) and diamond(u, v) == w
