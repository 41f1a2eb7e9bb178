from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invhom import expressions
from invhom.algebra import AlgebraElement, scale
from invhom.expressions import (
    ModeError,
    ParseError,
    eval_algebra,
    eval_word,
    evaluate,
    generator_expression,
    parse_expression,
    render_expr,
)
from invhom.words import Letter, Word, parse_word

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


def test_unbalanced_and_trailing_input():
    expect_error("(x", "')'")
    expect_error("x ) y", "unexpected")
    expect_error("x y (", "unexpected")
    expect_error("x @ y", "unexpected character")
    # names and integers are ASCII, the rule words.py checks
    expect_error("x é", "unexpected character", 1, 3)
    expect_error("2² . x", "unexpected character", 1, 2)


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
    for walk in (render_expr, evaluate):
        with pytest.raises(TypeError, match="not an expression node"):
            walk("x")


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
