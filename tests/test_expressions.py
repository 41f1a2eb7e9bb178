import functools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invhom import expressions
from invhom.algebra import AlgebraElement, scale
from invhom.expressions import (
    Add,
    Alpha,
    Diamond,
    ModeError,
    Neg,
    ParseError,
    Scaled,
    Sub,
    WordLit,
    eval_algebra,
    eval_word,
    evaluate,
    generator_expression,
    parse_expression,
    render_expr,
    word_value,
)
from invhom.words import Letter, Word, diamond, parse_word

letters = st.builds(Letter, st.sampled_from(["x", "y", "zz"]), st.integers(0, 1))
words = st.builds(Word, st.lists(letters, min_size=1, max_size=6).map(tuple))


def w(text):
    return parse_word(text)


# ---------------------------------------------------------------- words

def test_word_literals():
    assert eval_word("x") == w("x")
    assert eval_word("[x]") == w("[x]")
    assert eval_word("x [y] z") == w("x [y] z")


def test_product_is_left_associative():
    assert eval_word("x * y") == w("x y")
    assert eval_word("x * y * z") == w("[x] y [z]")
    assert eval_word("x * (y * z)") == w("x y z")


def test_a_long_product_chain_is_the_fold_of_the_product():
    rng = random.Random(1000)
    factors = [rng.choice(["x", "[y]", "z [x]"]) for _ in range(1000)]
    expected = functools.reduce(diamond, [w(f) for f in factors])
    assert eval_word(" * ".join(factors)) == expected
    assert eval_word(" * ".join(["x"] * 1000)) == functools.reduce(diamond, [w("x")] * 1000)


def test_involution_application():
    assert eval_word("A(x)") == w("[x]")
    assert eval_word("A(x [y])") == w("[x] y")
    assert eval_word("A(A(x y))") == w("x y")
    assert eval_word("A(x * y * z)") == w("x [y] z")


def test_word_mode_rejects_algebra_constructs():
    for text in ["x + y", "x - y", "2 . x", "-x", "1/2 . (x * y)"]:
        with pytest.raises(ModeError):
            eval_word(text)


def test_word_mode_rejects_before_evaluating(monkeypatch):
    def unreachable(*args):
        raise AssertionError("evaluated a combination in word mode")

    monkeypatch.setattr(expressions, "diamond_alg", unreachable)
    with pytest.raises(ModeError):
        eval_word("(x + y) * z")


# ---------------------------------------------------------------- algebra

def test_sums_and_scalars():
    got = eval_algebra("3/2 . x y + [y] - 2 . z")
    expected = (
        AlgebraElement.from_word(w("x y"), Fraction(3, 2))
        + AlgebraElement.from_word(w("[y]"))
        + AlgebraElement.from_word(w("z"), -2)
    )
    assert got == expected


def test_scalar_covers_the_whole_term():
    assert eval_algebra("2 . x * y") == eval_algebra("2 . (x * y)")


def test_leading_minus():
    assert eval_algebra("-x + x") == AlgebraElement.zero()
    assert eval_algebra("- 2 . x") == scale(-2, eval_algebra("x"))


def test_scalars_distribute_over_grouped_sums():
    assert eval_algebra("1/2 . (x + y)") == eval_algebra("1/2 . x + 1/2 . y")


def test_juxtaposition_versus_product():
    # single letters concatenate, so these agree
    assert eval_algebra("x * y - x y") == AlgebraElement.zero()
    # a longer left factor twists, so these do not
    assert eval_algebra("x y * z - x y z") != AlgebraElement.zero()
    assert eval_algebra("x y * z") == eval_algebra("[x] y [z]")


# ---------------------------------------------------------------- errors

def expect_error(text, fragment, line=None, col=None):
    with pytest.raises(ParseError) as info:
        parse_expression(text)
    assert fragment in str(info.value)
    if line is not None:
        assert info.value.line == line
    if col is not None:
        assert info.value.col == col


def test_empty_input():
    expect_error("", "empty expression", 1, 1)
    expect_error("   ", "empty expression")


def test_scalar_requires_the_dot():
    expect_error("2 x", "3/2 . x", 1, 3)
    expect_error("3/2 x", "'.'")


def test_zero_denominator():
    expect_error("3/0 . x", "zero denominator", 1, 3)


def test_reserved_involution_name():
    expect_error("A", "A_")
    expect_error("x * A", "reserved")
    expect_error("[A]", "reserved", 1, 2)


def test_positions_track_lines():
    expect_error("x +\n+ y", "expected", 2, 1)
    # the line and column of a token deep in a multi-line word literal
    expect_error("x [y]\n z\n[w] \t[A]", "reserved", 3, 7)
    expect_error("x\ny [z]\n  w é", "unexpected character", 3, 5)
    expect_error("(x\n[y]\n z]", "expected ')', found ']'", 3, 3)


def test_an_error_at_the_end_of_a_long_literal_has_its_column():
    line = " ".join(["x", "[y]"] * 50000)  # 100,000 letters, 299,999 characters
    expect_error(line + " [A]", "reserved", 1, 300002)
    expect_error(line + " [z", "expected ']', found end of input", 1, 300003)
    expect_error(line + " A", "unexpected 'A' after the expression", 1, 300001)
    expect_error("y\n\n" + line + "\n" + line + "é", "unexpected character", 4, 300000)


def test_unbalanced_and_trailing_input():
    expect_error("(x", "')'")
    expect_error("x ) y", "unexpected")
    expect_error("x y (", "unexpected")
    expect_error("x @ y", "unexpected character")
    # names and integers are ASCII, the rule words.py checks
    expect_error("x é", "unexpected character", 1, 3)
    expect_error("2² . x", "unexpected character", 1, 2)


def test_bad_names_keep_their_error_texts():
    for text, message in [
        ("x é", "line 1, column 3: unexpected character 'é'"),
        ("[1x]", "line 1, column 2: expected a generator name, found '1'"),
        ("x [A]", "line 1, column 4: 'A' is reserved for the involution; "
         "name the generator A_ instead"),
        # a '[' that opens no atom, and a word literal named by its first atom
        ("[[ y ]", "line 1, column 2: expected a generator name, found '['"),
        ("[\ry/", "line 1, column 4: expected ']', found '/'"),
        ("x0*[_[A]2", "line 1, column 6: expected ']', found '['"),
        ("(x) y z", "line 1, column 5: unexpected 'y' after the expression"),
        ("((x) [y] z)", "line 1, column 6: expected ')', found '['"),
        ("2 x y", "line 1, column 3: a scalar attaches with '.', as in 3/2 . x"),
    ]:
        with pytest.raises(ParseError) as info:
            parse_expression(text)
        assert str(info.value) == message


CORPUS = Path(__file__).resolve().parent / "data" / "parser_corpus.json"


def test_the_parser_answers_its_frozen_corpus_byte_for_byte():
    # tools/parser_corpus.py recorded these answers; the named cases lead
    cases = json.loads(CORPUS.read_text(encoding="utf-8"))
    assert len(cases) >= 2000
    named = ["[[ y ]", "[\ry/", "x0*[_[A]2", "(x) y z", "2 x y"]
    assert [text for text, _, _ in cases[:5]] == named
    answers = []
    for text, _, _ in cases:
        try:
            answers.append([text, "ok", repr(parse_expression(text))])
        except ParseError as err:
            answers.append([text, "error", str(err)])
    assert answers == cases


def test_nesting_has_no_depth_cap():
    deep = "(" * 200 + "x" + ")" * 200
    assert parse_expression(deep) == parse_expression("x")
    assert eval_word("A(" * 200 + "x" + ")" * 200) == w("x")
    assert eval_word("(" * 201 + "x" + ")" * 201) == w("x")
    assert eval_word("A(" * 201 + "x" + ")" * 201) == w("[x]")


def test_stray_operator():
    expect_error("x +", "expected")
    expect_error("* x", "expected")


# ---------------------------------------------------------------- rendering

def test_render_is_fully_parenthesized():
    node = parse_expression("x * y * z + 2 . [w]")
    assert render_expr(node) == "(((x * y) * z) + (2 . [w]))"
    x = WordLit(w("x"))
    functions = (render_expr, evaluate, word_value)
    methods = (repr, hash, lambda n: n == Alpha(x), lambda n: Alpha(x) == n)
    # anything that is not a node, at the root or below it, is a TypeError
    for walk, tree in [(f, "y") for f in functions] + [
        (f, Alpha(Add(x, "y"))) for f in functions + methods
    ]:
        with pytest.raises(TypeError, match="^not an expression node: 'y'$"):
            walk(tree)
    # equality and hash read the coefficient itself, never its digits
    big = Alpha(Scaled(10**5000, x))
    assert big == Alpha(Scaled(10**5000, WordLit(w("x"))))
    assert hash(big) == hash(Alpha(Scaled(10**5000, WordLit(w("x")))))
    limit = sys.get_int_max_str_digits()
    for show in (render_expr, repr):
        with pytest.raises(ValueError, match="^a coefficient has more than %d digits$" % limit):
            show(big)


def test_right_nested_sums_equal_their_left_nested_values():
    n = 8000
    terms = ["x%d%s" % (i, " [y]" if i % 3 == 0 else "") for i in range(n)]
    shapes = {  # step k joins t_k to the rest: operator, scalar, factor on the rest
        "+": lambda k: ("+", "", 1),
        "-": lambda k: ("-", "", -1),
        "mixed": lambda k: [("+", "2 . ", 2), ("-", "1/2 . ", Fraction(-1, 2)),
                            ("+", "", 1), ("-", "", -1)][k % 4],
    }
    for step in shapes.values():
        steps = [step(k) for k in range(n - 1)]
        text = terms[-1]
        for k in range(n - 2, -1, -1):  # t_k op (scalar . (rest))
            op, scalar, _ = steps[k]
            text = "%s %s %s(%s)" % (terms[k], op, scalar, text)
        coeff, pairs = 1, [(w(terms[0]), 1)]
        for k in range(n - 1):
            coeff *= steps[k][2]
            pairs.append((w(terms[k + 1]), coeff))
        expected = AlgebraElement(pairs)
        assert eval_algebra(text) == expected
        left = " + ".join("%s . %s" % (c, t) if c != 1 else t for (_, c), t in zip(pairs, terms))
        assert eval_algebra(left.replace("+ -", "- ")) == expected


def test_render_round_trips():
    for text in [
        "x",
        "[x] y",
        "x * y * z",
        "A(x [y]) * z",
        "3/2 . x y + [y] - 2 . z",
        "-x + 1/2 . (y + z)",
    ]:
        node = parse_expression(text)
        assert parse_expression(render_expr(node)) == node
    # the parser never builds a negative Scaled, so such a tree built by hand
    # comes back as Neg of a positive one: the value round-trips, not the tree
    x_y = Add(WordLit(w("x")), WordLit(w("[y] z")))
    for coeff, back in [
        (-2, Neg(Scaled(2, x_y))),
        (Fraction(-1, 2), Neg(Scaled(Fraction(1, 2), x_y))),
        (0, Scaled(0, x_y)),
    ]:
        node = Scaled(coeff, x_y)
        again = parse_expression(render_expr(node))
        assert again == back and evaluate(again) == evaluate(node)


def _deep(depth, leaf):
    """A tree of the given depth whose spine cycles through every node class."""
    x, y = WordLit(w("x")), WordLit(w("[y] z"))
    makers = [
        Alpha, lambda n: Diamond(n, y), lambda n: Add(x, n),
        lambda n: Sub(n, y), Neg, lambda n: Scaled(Fraction(3, 2), n),
    ]
    node = leaf
    for k in range(depth):
        node = makers[k % 6](node)
    return node


def test_equality_hash_and_repr_work_at_any_depth():
    x, y = WordLit(w("x")), WordLit(w("y"))
    a, b = _deep(100_000, x), _deep(100_000, x)
    assert a == b and hash(a) == hash(b)
    text = repr(a)
    assert text.startswith(
        "Sub(left=Add(left=WordLit(word=parse_word('x')), right=Diamond(left=Alpha("
        "expr=Scaled(coeff=Fraction(3, 2), expr=Neg(expr=Sub(left=Add("
    )
    assert text.count("Alpha(expr=") == 16_667
    deep = _deep(20_000, x)
    assert deep != _deep(20_000, y) and deep != _deep(19_999, x)
    assert parse_expression(render_expr(deep)) == deep


def test_shallow_trees_keep_the_dataclass_text():
    node = parse_expression("2 . x * [y] - A(x z)")
    assert repr(node) == (
        "Sub(left=Scaled(coeff=2, expr=Diamond(left=WordLit(word=parse_word('x')), "
        "right=WordLit(word=parse_word('[y]')))), "
        "right=Alpha(expr=WordLit(word=parse_word('x z'))))"
    )
    assert node == parse_expression("(2 . (x * [y])) - A(x z)")
    assert node != parse_expression("2 . x * [y] + A(x z)")
    assert Scaled(2, WordLit(w("x"))) == Scaled(Fraction(2), WordLit(w("x")))
    assert hash(Scaled(2, WordLit(w("x")))) == hash(Scaled(Fraction(2), WordLit(w("x"))))
    assert Alpha(WordLit(w("x"))) != Neg(WordLit(w("x")))
    assert (WordLit(w("x")) == w("x")) is False


@given(st.text(st.sampled_from(list("xyA_12/.*+-()[] \n")), max_size=40))
@settings(max_examples=300, deadline=None)
def test_rendered_text_parses_back_to_the_same_text(text):
    try:
        node = parse_expression(text)
    except ParseError:
        return
    rendered = render_expr(node)
    assert render_expr(parse_expression(rendered)) == rendered


@given(words)
def test_generator_expression_rebuilds_the_word(word):
    assert eval_word(generator_expression(word)) == word


def test_generator_expression_shape():
    assert generator_expression(w("x")) == "x"
    assert generator_expression(w("[x]")) == "A(x)"
    assert generator_expression(w("x [y] z")) == "x * (A(y) * z)"


@pytest.mark.parametrize("text", ["A", "[A]", "A x", "x [A]", "x y A"])
def test_generator_expression_refuses_a_letter_named_A(text):
    # the text would read the letter as the involution
    with pytest.raises(ValueError, match="^'A' is reserved for the involution"):
        generator_expression(w(text))
    assert generator_expression(w(text.replace("A", "A_"))).count("A_") == 1


def test_render_refuses_a_coefficient_over_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    for coeff in (10**5000, -(10**5000), Fraction(1, 10**5000)):
        node = Add(WordLit(w("y")), Scaled(coeff, WordLit(w("x"))))
        with pytest.raises(ValueError, match="^a coefficient has more than %d digits$" % limit):
            render_expr(node)
    assert render_expr(Scaled(10**100, WordLit(w("x")))) == "(%d . x)" % 10**100
