"""Rational linear combinations of words.

The span of all words is an algebra: the twisted product extends bilinearly
and the involution extends linearly.  Coefficients are exact: ints stay
ints, a Fraction appears only once a denominator does, and one that becomes
integral is stored as its int again.  Only this module reads the coefficient
dictionaries, and ``_combine`` builds every one, normalized, in one pass over
(c, x) pairs, so equality is equality of dictionaries.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple, Union

from .words import Word, _decode, alpha_word
from .words import diamond_closed as diamond  # the span's product; perfbench/smoke.py swaps it

Scalar = Union[int, Fraction]


def _term_key(w: Word):
    # by length, then letter by letter: name first, then its mark
    return (len(w), tuple(_decode(w)))


def _word(w) -> Word:
    if not isinstance(w, Word):
        raise TypeError("terms must be keyed by words, got %r" % (w,))
    return w


class AlgebraElement:
    """A finite rational combination of words.

    ``terms`` maps each word to its nonzero coefficient, an int or a
    Fraction.  The zero element has no terms at all.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Union[Mapping[Word, Scalar], Iterable[Tuple[Word, Scalar]]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        self.terms: Dict[Word, Scalar] = _combine((c, _word(w)) for w, c in items).terms

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
        return _combine(((1, self), (-1, other)))

    def __neg__(self):
        return _combine(((-1, self),))

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return diamond_alg(self, other)
        if isinstance(other, (int, Fraction)):
            return scale(other, self)
        return NotImplemented

    __rmul__ = __mul__  # only a scalar reaches it, and scalars commute

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


def _combine(pairs: Iterable[Tuple[Scalar, Union[Word, AlgebraElement]]]) -> AlgebraElement:
    """The sum of c·x over the (c, x) pairs, each x a word or an element, in
    one pass.  The one normalization of coefficients: zeros are dropped, and
    an integral Fraction is stored as its int."""
    acc: Dict[Word, Scalar] = {}
    for c, x in pairs:
        if c.__class__ not in (int, Fraction):
            if not isinstance(c, (int, Fraction)):
                raise TypeError("coefficients must be ints or Fractions, got %r" % (c,))
            c = +c  # a bool or another subclass becomes the plain int or Fraction
        if isinstance(x, Word):
            items = ((x, c),)
        else:
            items = x.terms.items() if c == 1 else [(w, c * cw) for w, cw in x.terms.items()]
        for w, cw in items:
            old = acc.get(w)
            tot = cw if old is None else old + cw
            acc[w] = tot.numerator if isinstance(tot, Fraction) and tot.denominator == 1 else tot
            if not tot:
                del acc[w]
    total = object.__new__(AlgebraElement)
    total.terms = acc
    return total


def add(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    return _combine(((1, a), (1, b)))


def scale(c: Scalar, a: AlgebraElement) -> AlgebraElement:
    return _combine(((c, a),))


def diamond_alg(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Bilinear extension of the twisted product of words."""
    return _combine(
        (cu * cv, diamond(u, v)) for u, cu in a.terms.items() for v, cv in b.terms.items()
    )


def alpha_alg(a: AlgebraElement) -> AlgebraElement:
    """Linear extension of the involution; a bijection on terms."""
    return _combine((c, alpha_word(w)) for w, c in a.terms.items())


def equals(a: AlgebraElement, b: AlgebraElement) -> bool:
    return a.terms == b.terms
