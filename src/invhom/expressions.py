"""A small expression language over words and their rational combinations.

Grammar, with '*' left-associative:

    expr    := '-'? term (('+' | '-') term)*
    term    := scalar? factor ('*' factor)*
    factor  := wordlit | 'A' '(' expr ')' | '(' expr ')'
    wordlit := atom atom*
    atom    := name | '[' name ']'
    scalar  := int ('/' posint)? '.'

A name is [A-Za-z_][A-Za-z0-9_]*, the rule of words.py, and an int is
ASCII digits.  Juxtaposed atoms form one word, so "x [y] z" is a single
word literal.  Scalars attach with an explicit dot, as in "3/2 . x".  The
name 'A' is reserved for the involution; a generator that wants the letter
can use A_.  '(' and 'A(' nest at most 200 levels deep.

One walk over the tree, on an explicit stack, both evaluates and renders.
The value stays a word while only words, 'A', and '*' are involved; '+',
'-', and scalars move it to the linear span.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Tuple, TypeVar, Union

from .algebra import AlgebraElement, add, alpha_alg, diamond_alg, scale
from .words import NAME_PATTERN, Letter, Word, alpha_word, diamond

T = TypeVar("T")


class ParseError(ValueError):
    """Rejected input, with the 1-based position of the offending token."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__("line %d, column %d: %s" % (line, col, message))
        self.line = line
        self.col = col


class ModeError(ValueError):
    """An algebra-only construct appeared where a plain word is required."""


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"(?P<space>[ \t\r]+)|(?P<newline>\n)|(?P<INT>[0-9]+)"
    r"|(?P<NAME>%s)|(?P<symbol>[-+*/.()\[\]])" % NAME_PATTERN
)


def tokenize(text: str) -> List[Token]:
    toks: List[Token] = []
    line, line_start, pos = 1, 0, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        col = pos - line_start + 1
        if m is None:
            raise ParseError(line, col, "unexpected character %r" % text[pos])
        kind, pos = m.lastgroup, m.end()
        if kind == "newline":
            line, line_start = line + 1, pos
        elif kind != "space":
            toks.append(Token(m.group() if kind == "symbol" else kind, m.group(), line, col))
    toks.append(Token("END", "", line, pos - line_start + 1))
    return toks


# ---------------------------------------------------------------- syntax tree

@dataclass(frozen=True)
class WordLit:
    word: Word


@dataclass(frozen=True)
class Alpha:
    expr: "Node"


@dataclass(frozen=True)
class Diamond:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Add:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Sub:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Neg:
    expr: "Node"


@dataclass(frozen=True)
class Scaled:
    coeff: Fraction
    expr: "Node"


Node = Union[WordLit, Alpha, Diamond, Add, Sub, Neg, Scaled]

_RESERVED = "'A' is reserved for the involution; name the generator A_ instead"

# The parser recurses three frames per level of '(' or 'A(', so the bound
# keeps every accepted input well inside Python's recursion limit.
_MAX_NESTING = 200


class _Parser:
    def __init__(self, toks: List[Token]):
        self.toks = toks
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def take(self) -> Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def fail(self, tok: Token, message: str):
        raise ParseError(tok.line, tok.col, message)

    def found(self, tok: Token) -> str:
        return "end of input" if tok.kind == "END" else repr(tok.text)

    def expect(self, kind: str, what: str) -> Token:
        tok = self.take()
        if tok.kind != kind:
            self.fail(tok, "expected %s, found %s" % (what, self.found(tok)))
        return tok

    def expression(self) -> Node:
        if self.peek().kind == "-":
            self.take()
            node: Node = Neg(self.term())
        else:
            node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self) -> Node:
        scal = self.try_scalar()
        node = self.factor()
        while self.peek().kind == "*":
            self.take()
            node = Diamond(node, self.factor())
        return node if scal is None else Scaled(scal, node)

    def try_scalar(self) -> Optional[Fraction]:
        if self.peek().kind != "INT":
            return None
        num = int(self.take().text)
        den = 1
        if self.peek().kind == "/":
            self.take()
            den_tok = self.expect("INT", "a denominator")
            den = int(den_tok.text)
            if den == 0:
                self.fail(den_tok, "zero denominator")
        dot = self.take()
        if dot.kind != ".":
            self.fail(dot, "a scalar attaches with '.', as in 3/2 . x")
        return Fraction(num, den)

    def factor(self) -> Node:
        tok = self.peek()
        involution = tok.kind == "NAME" and tok.text == "A"
        if involution or tok.kind == "(":
            self.take()
            if involution and self.take().kind != "(":
                self.fail(tok, _RESERVED)
            if self.depth == _MAX_NESTING:
                self.fail(tok, "nesting deeper than %d levels" % _MAX_NESTING)
            self.depth += 1
            node = self.expression()
            self.expect(")", "')'")
            self.depth -= 1
            return Alpha(node) if involution else node
        if tok.kind in ("NAME", "["):
            letters = [self.atom()]
            while self.peek().kind == "[" or (
                self.peek().kind == "NAME" and self.peek().text != "A"
            ):
                letters.append(self.atom())
            return WordLit(Word(tuple(letters)))
        self.fail(tok, "expected a word, '(', or 'A(', found %s" % self.found(tok))

    def atom(self) -> Letter:
        """A letter; factor() calls it only on '[' or a name other than 'A'."""
        tok = self.take()
        if tok.kind == "NAME":
            return Letter(tok.text, 0)
        name = self.expect("NAME", "a generator name")
        if name.text == "A":
            self.fail(name, _RESERVED)
        self.expect("]", "']'")
        return Letter(name.text, 1)


def parse_expression(text: str) -> Node:
    p = _Parser(tokenize(text))
    if p.peek().kind == "END":
        p.fail(p.peek(), "empty expression")
    node = p.expression()
    tail = p.peek()
    if tail.kind != "END":
        p.fail(tail, "unexpected %s after the expression" % p.found(tail))
    return node


# ---------------------------------------------------------------- the walk

def _children(node: Node) -> Tuple[Node, ...]:
    if isinstance(node, WordLit):
        return ()
    if isinstance(node, (Alpha, Neg, Scaled)):
        return (node.expr,)
    if isinstance(node, (Diamond, Add, Sub)):
        return (node.left, node.right)
    raise TypeError("not an expression node: %r" % (node,))


def _walk(node: Node, visit: Callable[..., T]) -> T:
    """Post-order fold without recursion: ``visit(n, *child results)`` for
    every node n, children first, kept on an explicit stack."""
    results: List[T] = []
    stack = [(node, False)]
    while stack:
        n, expanded = stack.pop()
        children = _children(n)
        if children and not expanded:
            stack.append((n, True))
            stack.extend((c, False) for c in reversed(children))
        else:
            k = len(results) - len(children)
            results[k:] = [visit(n, *results[k:])]
    return results[0]


def _lift(v: Union[Word, AlgebraElement]) -> AlgebraElement:
    return AlgebraElement.from_word(v) if isinstance(v, Word) else v


def _value(node: Node, *args: Union[Word, AlgebraElement]) -> Union[Word, AlgebraElement]:
    if isinstance(node, WordLit):
        return node.word
    if isinstance(node, Alpha):
        return alpha_word(args[0]) if isinstance(args[0], Word) else alpha_alg(args[0])
    if isinstance(node, Diamond):
        u, v = args
        if isinstance(u, Word) and isinstance(v, Word):
            return diamond(u, v)
        return diamond_alg(_lift(u), _lift(v))
    a = [_lift(x) for x in args]
    if isinstance(node, Add):
        return add(a[0], a[1])
    if isinstance(node, Sub):
        return add(a[0], scale(-1, a[1]))
    return scale(-1 if isinstance(node, Neg) else node.coeff, a[0])


def evaluate(node: Node) -> Union[Word, AlgebraElement]:
    """The value of a tree: a word while only words, 'A', and '*' are
    involved, an element of the linear span from the first '+', '-', or
    scalar on, or when '*' or 'A' meets a combination."""
    return _walk(node, _value)


def word_value(node: Node) -> Word:
    """evaluate(), refused before any work when the tree leaves the words."""
    if _walk(node, lambda n, *sub: any(sub) or isinstance(n, (Add, Sub, Neg, Scaled))):
        raise ModeError(
            "sums, differences, and scalars build combinations, not a single word"
        )
    return evaluate(node)


def algebra_value(node: Node) -> AlgebraElement:
    return _lift(evaluate(node))


def eval_word(text: str) -> Word:
    """Evaluate an expression that stays inside the free structure."""
    return word_value(parse_expression(text))


def eval_algebra(text: str) -> AlgebraElement:
    """Evaluate any expression in the linear span."""
    return algebra_value(parse_expression(text))


_FORMATS = {
    Alpha: "A(%s)",
    Diamond: "(%s * %s)",
    Add: "(%s + %s)",
    Sub: "(%s - %s)",
    Neg: "(-%s)",
    Scaled: "(%s . %s)",
}


def _text(node: Node, *parts: str) -> str:
    if isinstance(node, WordLit):
        text = str(node.word)
        return text if len(node.word.letters) == 1 else "(%s)" % text
    if isinstance(node, Scaled):
        parts = (str(node.coeff),) + parts
    return _FORMATS[type(node)] % parts


def render_expr(node: Node) -> str:
    """Fully parenthesized text; parsing it back yields the same tree,
    as long as the text nests at most 200 levels deep."""
    return _walk(node, _text)


def generator_expression(w: Word) -> str:
    """Build a word from bare generators using only '*' and the involution.

    The twisted product with a single letter on the left is concatenation,
    so peeling letters off the front gives a right-nested product.
    """
    parts = ["A(%s)" % l.name if l.bit else l.name for l in w.letters]
    expr = parts.pop()
    for k, part in enumerate(reversed(parts)):
        expr = "%s * %s" % (part, "(%s)" % expr if k else expr)
    return expr
