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

The tokenizer gives plain (kind, text, offset) tuples.  A word literal's
maximal run of atoms is one WORD token, and one findall reads its letters,
so the Python-level work is per token, not per letter.  A ParseError counts
its line and column from the offset only when it is raised.

Every pass over a tree keeps an explicit stack, so none recurses on depth.
A post-order walk evaluates: the value stays a word while only words, 'A',
and '*' are involved, and each maximal run of '+', '-', and scalars is one
step, one linear combination in the span, so a sum of any shape costs linear
time.  One pre-order pass gives the pieces of the text, repr, == and hash.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Callable, Iterable, List, Optional, Tuple, TypeVar, Union

from ._record import _Record
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


# Whitespace is skipped before each token, and the group that matches names
# its kind.  A WORD is a maximal run of well-formed atoms, none a bare 'A'.
_SPACE = r"[ \t\r\n]*"
_NAME = r"(?!A(?![A-Za-z0-9_]))" + NAME_PATTERN  # any name but 'A'
_ATOM = r"(?:%s|\[%s%s%s\])" % (_NAME, _SPACE, _NAME, _SPACE)
_TOKEN = _SPACE + (
    r"(?:%s(?P<INT>[0-9]+)|(?P<NAME>" + NAME_PATTERN + r")|(?P<symbol>[-+*/.()\[\]])"
    r"|(?P<END>\Z)|(?P<BAD>.))"
)
_WORD_TOKEN_RE = re.compile(_TOKEN % ("(?P<WORD>%s(?:%s%s)*)|" % (_ATOM, _SPACE, _ATOM)))
_ATOM_TOKEN_RE = re.compile(_TOKEN % "")
_LETTER_RE = re.compile(r"(\[?)%s(%s)" % (_SPACE, NAME_PATTERN))  # in a WORD: ('[' or '', name)
_MARK = {"": "0", "[": "1"}
_Tok = Tuple[str, str, int]  # kind, text, offset


def tokenize(text: str) -> List[_Tok]:
    """(kind, text, offset) tokens, the last one END.  A '[' that opens no
    well-formed atom is a token of its own, and the parse fails at it or at
    one of the two tokens after it; from there on every token is a single
    atom, so the error names the one it met."""
    toks: List[_Tok] = []
    pattern, pos, kind = _WORD_TOKEN_RE, 0, None
    while kind != "END":
        m = pattern.match(text, pos)
        kind, pos = m.lastgroup, m.end()
        tok, at = m.group(kind), m.start(kind)
        if kind == "BAD":
            raise _error(text, at, "unexpected character %r" % tok)
        if kind == "symbol":
            kind = tok
            if tok == "[":
                pattern = _ATOM_TOKEN_RE
        toks.append((kind, tok, at))
    return toks


def _error(text: str, offset: int, message: str) -> ParseError:
    """The ParseError at text[offset], its line and column counted here."""
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(text.count("\n", 0, offset) + 1, offset - line_start + 1, message)


# ---------------------------------------------------------------- syntax tree

class _Node(_Record):
    """``==``, ``hash`` and ``repr`` read the pieces of the repr text from
    one pre-order pass, so any depth works; words and coefficients stay objects."""

    __slots__ = ()

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return _pieces(self, _REPRS) == _pieces(other, _REPRS) if same else NotImplemented

    def __hash__(self):
        return hash(tuple(_pieces(self, _REPRS)))

    def __repr__(self):
        try:
            return "".join(p if isinstance(p, str) else repr(p) for p in _pieces(self, _REPRS))
        except ValueError:  # a coefficient over sys.get_int_max_str_digits() digits
            raise ValueError(_TOO_LONG % sys.get_int_max_str_digits()) from None


class WordLit(_Node):
    __slots__ = ("word",)

    def __init__(self, word: Word):
        object.__setattr__(self, "word", word)


class Alpha(_Node):
    __slots__ = ("expr",)

    def __init__(self, expr: Node):
        object.__setattr__(self, "expr", expr)


class Diamond(_Node):
    __slots__ = ("left", "right")

    def __init__(self, left: Node, right: Node):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Add(_Node):
    __slots__ = ("left", "right")

    def __init__(self, left: Node, right: Node):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Sub(_Node):
    __slots__ = ("left", "right")

    def __init__(self, left: Node, right: Node):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Neg(_Node):
    __slots__ = ("expr",)

    def __init__(self, expr: Node):
        object.__setattr__(self, "expr", expr)


class Scaled(_Node):
    __slots__ = ("coeff", "expr")  # coeff: an int, or a Fraction when there is a denominator

    def __init__(self, coeff: Scalar, expr: Node):
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "expr", expr)


Node = Union[WordLit, Alpha, Diamond, Add, Sub, Neg, Scaled]
_LINEAR = (Add, Sub, Neg, Scaled)  # the nodes of a run: sums and scalar multiples

_RESERVED = "'A' is reserved for the involution; name the generator A_ instead"
_TOO_LONG = "a coefficient has more than %d digits"  # of sys.get_int_max_str_digits()
_THEN = object()  # on _pieces' stack, above the text after a subtree: a 1-tuple field is no text


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = tokenize(text)
        self.pos = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def take(self) -> _Tok:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def fail(self, tok: _Tok, message: str):
        raise _error(self.text, tok[2], message)

    def found(self, tok: _Tok) -> str:
        kind, text, _ = tok
        if kind == "WORD":  # the error names its first atom
            text = "[" if text[0] == "[" else _LETTER_RE.match(text).group(2)
        return "end of input" if kind == "END" else repr(text)

    def expect(self, kind: str, what: str) -> _Tok:
        tok = self.take()
        if tok[0] != kind:
            self.fail(tok, "expected %s, found %s" % (what, self.found(tok)))
        return tok

    def expression(self) -> Node:
        """An expr, on an explicit stack: '(' and 'A(' push the half-built sum
        and term around them, and the matching ')' pops them for the group."""
        stack: List[tuple] = []
        fresh = True
        while True:
            if fresh:  # a leading '-' is the pending operator of an empty sum
                op = self.take()[0] if self.peek()[0] == "-" else None
                total = prod = None
                scal = self.try_scalar()
            tok = self.peek()
            involution = tok[:2] == ("NAME", "A")
            if involution or tok[0] == "(":
                self.take()
                if involution and self.take()[0] != "(":
                    self.fail(tok, _RESERVED)
                stack.append((involution, total, op, scal, prod))
                fresh = True
                continue
            if tok[0] not in ("WORD", "["):
                self.fail(tok, "expected a word, '(', or 'A(', found %s" % self.found(tok))
            letters: List[Tuple[str, str]] = []
            while self.peek()[0] in ("WORD", "["):  # a word token, and single atoms around it
                letters += self.atoms()
            node: Node = WordLit(_encode(letters))
            fresh = False
            while True:  # node is a finished factor; close what it finishes
                prod = node if prod is None else Diamond(prod, node)
                if self.peek()[0] == "*":
                    self.take()
                    break
                term = prod if scal is None else Scaled(scal, prod)
                if total is None:
                    total = Neg(term) if op else term
                else:
                    total = Add(total, term) if op == "+" else Sub(total, term)
                if self.peek()[0] in ("+", "-"):
                    op = self.take()[0]
                    scal, prod = self.try_scalar(), None
                    break
                if not stack:
                    return total
                self.expect(")", "')'")
                group = total
                involution, total, op, scal, prod = stack.pop()
                node = Alpha(group) if involution else group

    def integer(self, tok: _Tok) -> int:
        try:
            return int(tok[1])
        except ValueError:  # over sys.get_int_max_str_digits() digits
            self.fail(tok, "integer longer than %d digits" % sys.get_int_max_str_digits())

    def try_scalar(self) -> Optional[Scalar]:
        if self.peek()[0] != "INT":
            return None
        scalar = self.integer(self.take())
        if self.peek()[0] == "/":
            self.take()
            den_tok = self.expect("INT", "a denominator")
            den = self.integer(den_tok)
            if den == 0:
                self.fail(den_tok, "zero denominator")
            scalar = Fraction(scalar, den)
        dot = self.take()
        if dot[0] != ".":
            self.fail(dot, "a scalar attaches with '.', as in 3/2 . x")
        return scalar

    def atoms(self) -> Iterable[Tuple[str, str]]:
        """The letters' (name, mark) pairs, each mark '0' or '1', of a WORD
        token, or of one '[' atom token by token; expression() calls it only
        on those two kinds.  A WORD's names are already valid names."""
        kind, text, _ = self.take()
        if kind == "WORD":
            opens, names = zip(*_LETTER_RE.findall(text))
            return zip(names, map(_MARK.get, opens))
        name = self.expect("NAME", "a generator name")
        if name[1] == "A":
            self.fail(name, _RESERVED)
        self.expect("]", "']'")
        return [(name[1], "1")]


def parse_expression(text: str) -> Node:
    p = _Parser(text)
    if p.peek()[0] == "END":
        p.fail(p.peek(), "empty expression")
    node = p.expression()
    tail = p.peek()
    if tail[0] != "END":
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


def _pieces(node: Node, formats: dict) -> list:
    """formats[type(n)] around the fields of every node n, in pre-order on one
    explicit stack: the leaf, a word or a coefficient and always the first
    field, as the object itself, and each subtree expanded in place."""
    out, stack = [], [node]
    while stack:
        n = stack.pop()
        if n is _THEN:  # the text after a subtree, pushed below the marker
            out.append(stack.pop())
            continue
        kids, texts = _children(n), formats[type(n)]
        if len(texts) > len(kids) + 1:
            out += texts[0], n.word if isinstance(n, WordLit) else n.coeff
            texts = texts[1:]
        out.append(texts[0])
        for kid, text in zip(reversed(kids), reversed(texts[1:])):
            stack += text, _THEN, kid
    return out


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


_FORMATS = {  # render_expr's text around each node's fields, split at the slots
    c: fmt.split("%s") for c, fmt in {
        WordLit: "%s",  # _text adds the parentheses of a longer word
        Alpha: "A(%s)",
        Diamond: "(%s * %s)",
        Add: "(%s + %s)",
        Sub: "(%s - %s)",
        Neg: "(-%s)",
        Scaled: "(%s . %s)",
    }.items()
}

_REPRS = {  # the repr text, as ["Diamond(left=", ", right=", ")"]
    c: ("%s(%s)" % (c.__qualname__, ", ".join(f + "=%s" for f in c.__slots__))).split("%s")
    for c in _FORMATS
}


def _text(piece) -> str:
    if isinstance(piece, str):
        return piece
    if isinstance(piece, Word):
        return str(piece) if len(piece) == 1 else "(%s)" % piece
    try:
        return str(piece)
    except ValueError:  # over sys.get_int_max_str_digits() digits
        raise ValueError(_TOO_LONG % sys.get_int_max_str_digits()) from None


def render_expr(node: Node) -> str:
    """Fully parenthesized text.  Parsing it back gives the same tree for every
    tree that parse_expression returns, and the same value for any tree with
    int or Fraction coefficients and no generator named A.  A coefficient with
    more than sys.get_int_max_str_digits() digits, which the parser never
    builds, is a ValueError that names the limit."""
    return "".join(map(_text, _pieces(node, _FORMATS)))


def generator_expression(w: Word) -> str:
    """Build a word from bare generators using only '*' and the involution.

    The twisted product with a single letter on the left is concatenation,
    so peeling letters off the front gives a right-nested product.  A letter
    named A is a ValueError, because the text would read it as the involution.
    """
    pairs = list(_decode(w))
    if any(n == "A" for n, _ in pairs):
        raise ValueError(_RESERVED)
    parts = ["A(%s)" % n if m == "1" else n for n, m in pairs]
    expr = parts.pop()
    for k, part in enumerate(reversed(parts)):
        expr = "%s * %s" % (part, "(%s)" % expr if k else expr)
    return expr
