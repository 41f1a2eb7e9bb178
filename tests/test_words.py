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
letter_tuples = st.lists(letters, min_size=1, max_size=8).map(tuple)
words = st.builds(Word, letter_tuples)


def _random_word(rng, length):
    return Word(tuple(Letter(rng.choice("xyz"), rng.randint(0, 1)) for _ in range(length)))


# up to 2,000 letters, with the lengths around each 64-bit boundary drawn often
lengths = st.sampled_from([1, 2, 63, 64, 65, 127, 128, 129]) | st.integers(1, 2000)
long_words = st.builds(_random_word, st.randoms(use_true_random=False), lengths)


def reference_diamond(u, v):
    """The closed form on Letter tuples: flip all but the last letter of u,
    and every letter of v when u has even length."""
    head = tuple(l.flipped() for l in u.letters[:-1]) + u.letters[-1:]
    tail = tuple(l.flipped() for l in v.letters) if len(u) % 2 == 0 else v.letters
    return Word(head + tail)


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


def test_bad_names_keep_their_error_texts():
    need = ": need [A-Za-z_][A-Za-z0-9_]*"
    for make, text in [
        (lambda: Letter("x-y"), "bad generator name 'x-y'" + need),
        (lambda: Letter(3), "bad generator name 3" + need),
        (lambda: parse_word("x y-z"), "bad generator name 'y-z'" + need),
        (lambda: parse_word("[]"), "bad generator name '[]'" + need),
        # a bad name seen twice is still reported before a later bad one
        (lambda: parse_word("x q-r y-z q-r"), "bad generator name 'q-r'" + need),
        (lambda: embed("1x"), "bad generator name '1x'" + need),
        (lambda: next(iter_words(["x", "y-"], 1)), "bad generator name 'y-'" + need),
        (lambda: Word(()), "empty word: a word has at least one letter"),
    ]:
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == text
    with pytest.raises(TypeError) as info:
        Word(("x",))
    assert str(info.value) == "word entries must be Letter, got 'x'"


def test_words_are_immutable():
    w = parse_word("x [y]")
    for field, value in [("names", ("z",)), ("bits", 0), ("letters", ())]:
        with pytest.raises(AttributeError):
            setattr(w, field, value)
        with pytest.raises(AttributeError):
            delattr(w, field)
    assert w == parse_word("x [y]") and hash(w) == hash(parse_word("x [y]"))


def test_parse_and_render():
    w = parse_word("x [y] z")
    assert w.letters == (Letter("x", 0), Letter("y", 1), Letter("z", 0))
    assert render_word(w) == "x [y] z"
    assert parse_word("[x]") == Word((Letter("x", 1),))


@given(words)
def test_parse_render_round_trip(w):
    assert parse_word(render_word(w)) == w


def reference_parse_word(text):
    """parse_word one atom at a time: each atom checked as it is read."""
    atoms = text.split()
    if not atoms:
        raise ValueError("empty word: a word has at least one letter")
    letters = []
    for atom in atoms:
        bracketed = atom.startswith("[") and atom.endswith("]") and len(atom) > 2
        letters.append(Letter(atom[1:-1] if bracketed else atom, int(bracketed)))
    return Word(tuple(letters))


def _outcome(parse, text):
    try:
        return parse(text)
    except Exception as err:
        return type(err), str(err)


good_atoms = st.sampled_from(["x", "y", "q_1", "_"]).flatmap(
    lambda name: st.sampled_from([name, "[%s]" % name])
)
bad_atoms = st.sampled_from(["[]", "[[x]]", "[x", "x]", "y-z", "1x"])
separators = st.text(" \t\n", min_size=1, max_size=3)
texts = (
    st.tuples(
        st.text(" \t\n", max_size=2),
        st.lists(st.tuples(good_atoms | bad_atoms, separators), max_size=12),
    ).map(lambda t: t[0] + "".join(atom + sep for atom, sep in t[1]))
    | st.text(" \t\n", max_size=4)
)


@given(texts)
@settings(max_examples=300)
def test_parse_word_matches_the_per_atom_reference(text):
    # the same word, or the same exception type and message, on every text
    assert _outcome(parse_word, text) == _outcome(reference_parse_word, text)


@given(words | long_words)
def test_encoding_then_decoding_gives_back_the_word(w):
    from invhom.words import _decode, _encode

    pairs = list(_decode(w))
    assert pairs == [(l.name, str(l.bit)) for l in w.letters]
    assert _encode(pairs) == w and _encode(iter(pairs)) == w


@given(letter_tuples)
def test_letters_view_returns_the_letters(letters):
    w = Word(letters)
    assert w.letters == letters
    assert tuple(w) == letters
    assert w.names == tuple(l.name for l in letters)
    assert w.bits == int("".join(str(l.bit) for l in letters), 2)


_SHORT_WORDS = {w: w for w in iter_words(["x", "y", "z"], 4)}


@given(st.lists(letters, min_size=1, max_size=4).map(tuple))
def test_every_way_of_making_a_word_agrees(letters):
    from invhom.expressions import eval_word

    made = Word(letters)
    text = str(made)
    first = Word(letters[:1])
    for other in [
        parse_word(text),
        eval_word(text),
        _SHORT_WORDS[made],
        diamond(first, Word(letters[1:])) if len(letters) > 1 else first,
        alpha_word(alpha_word(made)),
    ]:
        assert other == made and hash(other) == hash(made)
        assert str(other) == text and repr(other) == repr(made)


# ---------------------------------------------------------------- involution

def test_alpha_on_generator():
    assert alpha_word(embed("x")) == parse_word("[x]")


def test_alpha_flips_each_bit():
    assert alpha_word(parse_word("x [y] z")) == parse_word("[x] y [z]")


@given(words | long_words)
def test_alpha_is_an_involution(w):
    assert alpha_word(alpha_word(w)) == w
    assert alpha_word(w).letters == tuple(l.flipped() for l in w.letters)


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


@given(long_words, long_words)
@settings(max_examples=60, deadline=None)
def test_both_products_match_a_letter_level_reference(u, v):
    expected = reference_diamond(u, v)
    assert diamond(u, v) == expected
    assert diamond_closed(u, v) == expected


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


def _masks(longest):
    # c_1 = 0 and c_(k+1) = 1 followed by the complement of c_k
    masks = ["0"]
    while len(masks) < longest:
        masks.append("1" + masks[-1].translate(str.maketrans("01", "10")))
    return masks


MASKS = _masks(7)


def _phi(w):
    # XOR each letter's mark with the mask of the word's length
    mask = MASKS[len(w) - 1]
    return Word(tuple(Letter(l.name, l.bit ^ int(c)) for l, c in zip(w.letters, mask)))


def test_products_are_the_twist_of_concatenation_by_the_mask():
    # a third oracle, sharing no loop with diamond or diamond_closed: the
    # words are the Yau twist of plain concatenation with every mark flipped
    assert MASKS[:5] == ["0", "11", "100", "1011", "10100"]
    masked = {w: _phi(w) for w in iter_words(["x", "y"], 7)}
    short = [w for w in masked if len(w) <= 5]
    pairs = 0
    for u in short:
        assert alpha_word(u) == masked[alpha_word(masked[u])]
        for v in short:
            if len(u) + len(v) <= 7:
                assert diamond(u, v) == masked[alpha_word(concat(masked[u], masked[v]))]
                pairs += 1
    assert pairs == 91024


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
