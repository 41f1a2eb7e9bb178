"""Rational linear combinations of words.

The span of all words is an algebra: the twisted product extends bilinearly
and the involution extends linearly.  Coefficients are exact: ints stay
ints, a Fraction appears only once a denominator does, and one that becomes
integral is stored as its int again.  Elements normalize on construction,
so equality is equality of coefficient dictionaries.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple, Union

from .words import Word, _marks, _packed, alpha_word
from .words import diamond  # noqa: F401  not called here; perfbench/smoke.py patches the name

Scalar = Union[int, Fraction]


def _coerce(c: Scalar) -> Scalar:
    if isinstance(c, (int, Fraction)):
        return c if c.__class__ in (int, Fraction) else +c  # a bool becomes an int
    raise TypeError("coefficients must be ints or Fractions, got %r" % (c,))


def _term_key(w: Word):
    # by length, then letter by letter: name first, then its mark
    return (len(w.names), tuple(zip(w.names, _marks(w))))


def _accumulate(acc: Dict[Word, Scalar], items: Iterable[Tuple[Word, Scalar]]) -> None:
    """Add each (word, coefficient) into acc, dropping zeros and storing an
    integral Fraction as its int.  The one normalization of coefficients."""
    for w, c in items:
        if not isinstance(w, Word):
            raise TypeError("terms must be keyed by words, got %r" % (w,))
        old = acc.get(w)
        tot = _coerce(c) if old is None else old + _coerce(c)
        if not tot:
            acc.pop(w, None)
        elif isinstance(tot, Fraction) and tot.denominator == 1:
            acc[w] = tot.numerator
        else:
            acc[w] = tot


class AlgebraElement:
    """A finite rational combination of words.

    ``terms`` maps each word to its nonzero coefficient, an int or a
    Fraction.  The zero element has no terms at all.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Union[Mapping[Word, Scalar], Iterable[Tuple[Word, Scalar]]] = ()):
        self.terms: Dict[Word, Scalar] = {}
        _accumulate(self.terms, terms.items() if isinstance(terms, Mapping) else terms)

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


def add(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    total = AlgebraElement()
    total.terms.update(a.terms)  # already normalized
    _accumulate(total.terms, b.terms.items())
    return total


def scale(c: Scalar, a: AlgebraElement) -> AlgebraElement:
    c = _coerce(c)
    return AlgebraElement({w: c * coeff for w, coeff in a.terms.items()})


def diamond_alg(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Bilinear extension of the twisted product of words: diamond_closed
    written out, with each right term's fields and complement taken once."""
    right = [(v.names, len(v.names), v.bits, cv) for v, cv in b.terms.items()]
    flipped = [(names, m, bits ^ ((1 << m) - 1), cv) for names, m, bits, cv in right]
    return AlgebraElement(
        (_packed(u.names + names, (u.bits ^ ((1 << len(u.names)) - 2)) << m | tail), cu * cv)
        for u, cu in a.terms.items()
        for names, m, tail, cv in (right if len(u.names) % 2 else flipped)
    )


def alpha_alg(a: AlgebraElement) -> AlgebraElement:
    """Linear extension of the involution; a bijection on terms."""
    return AlgebraElement({alpha_word(w): c for w, c in a.terms.items()})


def equals(a: AlgebraElement, b: AlgebraElement) -> bool:
    return a.terms == b.terms
