import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invhom.words import (
    Letter,
    Word,
    alpha_power,
    alpha_word,
    concat,
    diamond,
    diamond_closed,
    embed,
    iter_words,
    parse_word,
    render_word,
    word_length,
)

letters = st.builds(Letter, st.sampled_from(["x", "y", "z"]), st.integers(0, 1))
words = st.builds(Word, st.lists(letters, min_size=1, max_size=8).map(tuple))


# ---------------------------------------------------------------- construction

def test_embed_is_bare_single_letter():
    assert embed("x") == Word((Letter("x", 0),))
    assert embed("z") == Word((Letter("z", 0),))
    assert str(embed("x")) == "x"


def test_bad_generator_names_rejected():
    for bad in ["", "1x", "x y", "x-y", "[x]"]:
        with pytest.raises(ValueError):
            embed(bad)


def test_bad_bit_rejected():
    with pytest.raises(ValueError):
        Letter("x", 2)
    with pytest.raises(ValueError):
        Letter("x", -1)


def test_empty_word_rejected():
    with pytest.raises(ValueError):
        Word(())
    with pytest.raises(ValueError):
        parse_word("")
    with pytest.raises(ValueError):
        parse_word("   ")
    with pytest.raises(TypeError):
        Word(("x",))


def test_parse_and_render():
    w = parse_word("x [y] z")
    assert w.letters == (Letter("x", 0), Letter("y", 1), Letter("z", 0))
    assert render_word(w) == "x [y] z"
    assert parse_word("[x]") == Word((Letter("x", 1),))


@given(words)
def test_parse_render_round_trip(w):
    assert parse_word(render_word(w)) == w


# ---------------------------------------------------------------- involution

def test_alpha_on_generator():
    assert alpha_word(embed("x")) == parse_word("[x]")


def test_alpha_flips_each_bit():
    assert alpha_word(parse_word("x [y] z")) == parse_word("[x] y [z]")


@given(words)
def test_alpha_is_an_involution(w):
    assert alpha_word(alpha_word(w)) == w


@given(words)
def test_alpha_acts_letterwise(w):
    expected = Word(tuple(alpha_word(Word((l,))).letters[0] for l in w.letters))
    assert alpha_word(w) == expected


def test_alpha_power_parity():
    w = parse_word("x [y]")
    assert alpha_power(w, 0) == w
    assert alpha_power(w, 1) == alpha_word(w)
    assert alpha_power(w, 2) == w
    assert alpha_power(w, 7) == alpha_word(w)


# ---------------------------------------------------------------- the product

def test_product_of_two_generators_concatenates():
    assert diamond(embed("x"), embed("y")) == parse_word("x y")


def test_product_recursion_flips_head():
    assert diamond(parse_word("x y"), embed("z")) == parse_word("[x] y [z]")


def test_single_letter_left_factor_concatenates():
    assert diamond(embed("x"), parse_word("[y] z")) == parse_word("x [y] z")


def test_closed_form_matches_frozen_cases():
    assert diamond_closed(parse_word("x y"), embed("z")) == parse_word("[x] y [z]")
    w2 = parse_word("[y] z x")
    assert diamond_closed(embed("x"), w2) == concat(embed("x"), w2)
    # length-3 left factor: first two letters flip, the right factor is
    # twisted an even number of times and comes back unchanged
    assert diamond_closed(parse_word("[x] y [z]"), embed("w")) == parse_word(
        "x [y] [z] w"
    )


@given(words, words)
@settings(max_examples=300)
def test_recursive_and_closed_form_agree(u, v):
    assert diamond(u, v) == diamond_closed(u, v)


def test_recursion_handles_a_long_left_factor():
    rng = random.Random(20000)
    u = Word(tuple(Letter(rng.choice("xyz"), rng.randint(0, 1)) for _ in range(20000)))
    v = parse_word("y [z]")
    assert diamond(u, v) == diamond_closed(u, v)


@given(words, words)
def test_length_is_additive(u, v):
    assert word_length(diamond(u, v)) == word_length(u) + word_length(v)


@given(letters, words)
def test_left_letter_concatenation(l, v):
    assert diamond(Word((l,)), v) == Word((l,) + v.letters)


@given(words, words, words)
def test_split_law(w1, w2, w3):
    lhs = diamond(concat(w1, w2), w3)
    rhs = concat(alpha_word(w1), diamond(w2, alpha_power(w3, len(w1))))
    assert lhs == rhs


@given(words, words)
def test_alpha_is_multiplicative(u, v):
    assert alpha_word(diamond(u, v)) == diamond(alpha_word(u), alpha_word(v))


@given(words, words, words)
@settings(max_examples=300)
def test_hom_associativity(u, v, w):
    assert diamond(alpha_word(u), diamond(v, w)) == diamond(
        diamond(u, v), alpha_word(w)
    )


def test_words_are_not_associative_under_the_product():
    x, y, z = embed("x"), embed("y"), embed("z")
    assert diamond(diamond(x, y), z) == parse_word("[x] y [z]")
    assert diamond(x, diamond(y, z)) == parse_word("x y z")


# ---------------------------------------------------------------- generation

def _reach(w):
    # peel the first letter: every word is a product of embedded generators
    # under the twisted product and the involution alone
    head_letter = w.letters[0]
    head = embed(head_letter.name)
    if head_letter.bit:
        head = alpha_word(head)
    if len(w) == 1:
        return head
    return diamond(head, _reach(Word(w.letters[1:])))


def test_every_short_word_is_reachable_from_generators():
    count = 0
    for w in iter_words(["x", "y"], 4):
        assert _reach(w) == w
        count += 1
    assert count == 4 + 16 + 64 + 256


def test_iter_words_is_deterministic_and_graded():
    ws = list(iter_words(["x", "y"], 2))
    assert ws[:4] == [parse_word(s) for s in ["x", "[x]", "y", "[y]"]]
    assert [len(w) for w in ws] == [1] * 4 + [2] * 16
