"""Rational linear combinations of words.

The span of all words is an algebra: the twisted product extends bilinearly
and the involution extends linearly.  Coefficients are kept as exact
rationals, and elements normalize on construction, so equality is equality
of coefficient dictionaries.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple, Union

from .words import Word, alpha_word, diamond

Scalar = Union[int, Fraction]

_ZERO = Fraction(0)


def _coerce(c: Scalar) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError("coefficients must be ints or Fractions, got %r" % (c,))


def _term_key(w: Word):
    return (len(w.letters), tuple((l.name, l.bit) for l in w.letters))


class AlgebraElement:
    """A finite rational combination of words.

    ``terms`` maps each word to its nonzero coefficient.  The zero element
    has no terms at all.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Union[Mapping[Word, Scalar], Iterable[Tuple[Word, Scalar]]] = ()):
        acc: Dict[Word, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for w, c in items:
            if not isinstance(w, Word):
                raise TypeError("terms must be keyed by words, got %r" % (w,))
            tot = acc.get(w, _ZERO) + _coerce(c)
            if tot:
                acc[w] = tot
            else:
                acc.pop(w, None)
        self.terms = acc

    @classmethod
    def zero(cls) -> "AlgebraElement":
        return cls()

    @classmethod
    def from_word(cls, w: Word, coeff: Scalar = 1) -> "AlgebraElement":
        return cls({w: coeff})

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return add(self, other)

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return add(self, scale(-1, other))

    def __neg__(self):
        return scale(-1, self)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return diamond_alg(self, other)
        if isinstance(other, (int, Fraction)):
            return scale(other, self)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return scale(other, self)
        return NotImplemented

    def __str__(self):
        bits = []
        for w in sorted(self.terms, key=_term_key):
            c = self.terms[w]
            mag = abs(c)
            body = str(w) if mag == 1 else "%s . %s" % (mag, w)
            if not bits:
                bits.append(body if c > 0 else "-" + body)
            else:
                bits.append(("+ " if c > 0 else "- ") + body)
        return " ".join(bits) or "0"

    def __repr__(self):
        return str(self)


def add(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    return AlgebraElement(itertools.chain(a.terms.items(), b.terms.items()))


def scale(c: Scalar, a: AlgebraElement) -> AlgebraElement:
    c = _coerce(c)
    return AlgebraElement({w: c * coeff for w, coeff in a.terms.items()})


def diamond_alg(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Bilinear extension of the twisted product of words."""
    return AlgebraElement(
        (diamond(u, v), cu * cv)
        for u, cu in a.terms.items()
        for v, cv in b.terms.items()
    )


def alpha_alg(a: AlgebraElement) -> AlgebraElement:
    """Linear extension of the involution; a bijection on terms."""
    return AlgebraElement({alpha_word(w): c for w, c in a.terms.items()})


def equals(a: AlgebraElement, b: AlgebraElement) -> bool:
    return a.terms == b.terms
