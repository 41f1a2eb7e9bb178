"""A small expression language over words and their rational combinations.

Grammar, with '*' left-associative:

    expr    := '-'? term (('+' | '-') term)*
    term    := scalar? factor ('*' factor)*
    factor  := wordlit | 'A' '(' expr ')' | '(' expr ')'
    wordlit := atom atom*
    atom    := name | '[' name ']'
    scalar  := int ('/' posint)? '.'

A name is [A-Za-z_][A-Za-z0-9_]*, the rule of words.py, and an int is
ASCII digits, at most sys.get_int_max_str_digits() of them (4,300 by
default); a longer one is a ParseError at its token.  Juxtaposed atoms
form one word, so "x [y] z" is a single word literal.  Scalars attach with
an explicit dot, as in "3/2 . x", and stay ints unless they have a
denominator.  The name 'A' is reserved for the involution; a generator that
wants the letter can use A_.  '(' and 'A(' nest to any depth.

One walk over the tree, on an explicit stack, both evaluates and renders.
The value stays a word while only words, 'A', and '*' are involved.  Each
maximal run of '+', '-', and scalars is one step of the walk, one linear
combination in the span, so a sum of any shape costs linear time.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, List, Optional, Tuple, TypeVar, Union

from .algebra import AlgebraElement, Scalar, _combine, alpha_alg, diamond_alg
from .words import NAME_PATTERN, Word, _decode, _encode, alpha_word
from .words import diamond_closed as diamond  # the word '*'; perfbench/smoke.py swaps it

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

class _Node:
    """``==``, ``hash`` and ``repr`` from one walk over the tree, so they work
    at any depth: all three read the pieces of the dataclass text."""

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return _pieces(self, _repr) == _pieces(other, _repr) if same else NotImplemented

    def __hash__(self):
        return hash(tuple(_pieces(self, _repr)))

    def __repr__(self):
        return "".join(p if isinstance(p, str) else repr(p) for p in _pieces(self, _repr))


@dataclass(frozen=True, eq=False, repr=False)
class WordLit(_Node):
    word: Word


@dataclass(frozen=True, eq=False, repr=False)
class Alpha(_Node):
    expr: "Node"


@dataclass(frozen=True, eq=False, repr=False)
class Diamond(_Node):
    left: "Node"
    right: "Node"


@dataclass(frozen=True, eq=False, repr=False)
class Add(_Node):
    left: "Node"
    right: "Node"


@dataclass(frozen=True, eq=False, repr=False)
class Sub(_Node):
    left: "Node"
    right: "Node"


@dataclass(frozen=True, eq=False, repr=False)
class Neg(_Node):
    expr: "Node"


@dataclass(frozen=True, eq=False, repr=False)
class Scaled(_Node):
    coeff: Scalar  # an int, or a Fraction when the scalar has a denominator
    expr: "Node"


Node = Union[WordLit, Alpha, Diamond, Add, Sub, Neg, Scaled]
_LINEAR = (Add, Sub, Neg, Scaled)  # the nodes of a run: sums and scalar multiples

_RESERVED = "'A' is reserved for the involution; name the generator A_ instead"


class _Parser:
    def __init__(self, toks: List[Token]):
        self.toks = toks
        self.pos = 0

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
        """An expr, on an explicit stack: '(' and 'A(' push the half-built sum
        and term around them, and the matching ')' pops them for the group."""
        stack: List[tuple] = []
        fresh = True
        while True:
            if fresh:  # a leading '-' is the pending operator of an empty sum
                op = self.take().kind if self.peek().kind == "-" else None
                total = prod = None
                scal = self.try_scalar()
            tok = self.peek()
            involution = tok.kind == "NAME" and tok.text == "A"
            if involution or tok.kind == "(":
                self.take()
                if involution and self.take().kind != "(":
                    self.fail(tok, _RESERVED)
                stack.append((involution, total, op, scal, prod))
                fresh = True
                continue
            if tok.kind not in ("NAME", "["):
                self.fail(tok, "expected a word, '(', or 'A(', found %s" % self.found(tok))
            letters = [self.atom()]
            while self.peek().kind == "[" or (
                self.peek().kind == "NAME" and self.peek().text != "A"
            ):
                letters.append(self.atom())
            node: Node = WordLit(_encode(letters))
            fresh = False
            while True:  # node is a finished factor; close what it finishes
                prod = node if prod is None else Diamond(prod, node)
                if self.peek().kind == "*":
                    self.take()
                    break
                term = prod if scal is None else Scaled(scal, prod)
                if total is None:
                    total = Neg(term) if op else term
                else:
                    total = Add(total, term) if op == "+" else Sub(total, term)
                if self.peek().kind in ("+", "-"):
                    op = self.take().kind
                    scal, prod = self.try_scalar(), None
                    break
                if not stack:
                    return total
                self.expect(")", "')'")
                group = total
                involution, total, op, scal, prod = stack.pop()
                node = Alpha(group) if involution else group

    def integer(self, tok: Token) -> int:
        try:
            return int(tok.text)
        except ValueError:  # over sys.get_int_max_str_digits() digits
            self.fail(tok, "integer longer than %d digits" % sys.get_int_max_str_digits())

    def try_scalar(self) -> Optional[Scalar]:
        if self.peek().kind != "INT":
            return None
        scalar = self.integer(self.take())
        if self.peek().kind == "/":
            self.take()
            den_tok = self.expect("INT", "a denominator")
            den = self.integer(den_tok)
            if den == 0:
                self.fail(den_tok, "zero denominator")
            scalar = Fraction(scalar, den)
        dot = self.take()
        if dot.kind != ".":
            self.fail(dot, "a scalar attaches with '.', as in 3/2 . x")
        return scalar

    def atom(self) -> Tuple[str, str]:
        """A letter's name and mark, '0' or '1'; expression() calls it only on
        '[' or a name other than 'A'.  A NAME token is already a valid name."""
        tok = self.take()
        if tok.kind == "NAME":
            return tok.text, "0"
        name = self.expect("NAME", "a generator name")
        if name.text == "A":
            self.fail(name, _RESERVED)
        self.expect("]", "']'")
        return name.text, "1"


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


def _walk(node: Node, children: Callable[[Node], tuple], visit: Callable[..., T]) -> T:
    """Post-order fold without recursion: ``visit(n, *child results)`` for
    every node n, its children(n) first, kept on an explicit stack."""
    results: List[T] = []
    stack = [(node, None)]
    while stack:
        n, kids = stack.pop()
        if kids is None:  # first visit: come back to n after its children
            kids = children(n)
            stack.append((n, kids))
            stack.extend((c, None) for c in reversed(kids))
        else:
            k = len(results) - len(kids)
            results[k:] = [visit(n, *results[k:])]
    return results[0]


def _run(node: Node) -> List[Tuple[Scalar, Node]]:
    """(coefficient, operand) pairs, left to right, of the maximal run at node."""
    out, stack = [], [(1, node)]
    while stack:
        c, n = stack.pop()
        if isinstance(n, (Add, Sub)):
            stack += [(-c if isinstance(n, Sub) else c, n.right), (c, n.left)]
        elif isinstance(n, (Neg, Scaled)):
            stack.append((-c if isinstance(n, Neg) else c * n.coeff, n.expr))
        else:
            out.append((c, n))
    return out


def _pieces(node: Node, visit: Callable[..., list]) -> list:
    """The leaves, in order, of the nested lists that _walk returns with
    visit.  Flattening once, at the end, keeps a deep tree linear."""
    out, stack = [], [_walk(node, _children, visit)]
    while stack:
        piece = stack.pop()
        if isinstance(piece, list):
            stack.extend(reversed(piece))
        else:
            out.append(piece)
    return out


def _fill(fmt: str, parts: tuple) -> list:
    """fmt split at its %s slots, with parts in between."""
    pieces = fmt.split("%s")
    return [piece for pair in zip(pieces, parts + ("",)) for piece in pair]


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
    return _combine(zip([c for c, _ in _run(node)], args))  # a run, as evaluate walks it


def evaluate(node: Node) -> Union[Word, AlgebraElement]:
    """The value of a tree: a word while only words, 'A', and '*' are
    involved, an element of the linear span from the first '+', '-', or
    scalar on, or when '*' or 'A' meets a combination."""
    return _walk(  # a run is one step, its operands the children
        node, lambda n: [m for _, m in _run(n)] if isinstance(n, _LINEAR) else _children(n), _value
    )


def word_value(node: Node) -> Word:
    """evaluate(), refused before any work when the tree leaves the words."""
    if _walk(node, _children, lambda n, *sub: any(sub) or isinstance(n, _LINEAR)):
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


def _text(node: Node, *parts) -> Union[str, list]:
    if isinstance(node, WordLit):
        text = str(node.word)
        return text if len(node.word) == 1 else "(%s)" % text
    if isinstance(node, Scaled):
        parts = (str(node.coeff),) + parts
    return _fill(_FORMATS[type(node)], parts)


_REPRS = {  # the dataclass text, as "Diamond(left=%s, right=%s)"
    c: "%s(%s)" % (c.__qualname__, ", ".join(f.name + "=%s" for f in fields(c)))
    for c in (WordLit, *_FORMATS)
}


def _repr(node: Node, *parts) -> list:
    if isinstance(node, (WordLit, Scaled)):  # the word or coefficient itself
        parts = (node.word if isinstance(node, WordLit) else node.coeff,) + parts
    return _fill(_REPRS[type(node)], parts)


def render_expr(node: Node) -> str:
    """Fully parenthesized text.  Parsing it back gives the same tree for every
    tree that parse_expression returns, and the same value for any tree with
    int or Fraction coefficients and no generator named A."""
    return "".join(_pieces(node, _text))


def generator_expression(w: Word) -> str:
    """Build a word from bare generators using only '*' and the involution.

    The twisted product with a single letter on the left is concatenation,
    so peeling letters off the front gives a right-nested product.
    """
    parts = ["A(%s)" % n if m == "1" else n for n, m in _decode(w)]
    expr = parts.pop()
    for k, part in enumerate(reversed(parts)):
        expr = "%s * %s" % (part, "(%s)" % expr if k else expr)
    return expr
