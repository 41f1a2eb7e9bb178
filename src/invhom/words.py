"""Bracketed words and the twisted product.

The carrier is the set of nonempty sequences of "bracketed letters": named
generators each carrying an exponent bit.  Bit 0 prints as the bare name,
bit 1 as ``[name]``.  The involution flips every bit; the twisted product
concatenates when the left factor is a single letter and otherwise recurses
with a bit flip.  Together these make the set of words a free involutive
Hom-semigroup on the generator names.

It is a twist of a free semigroup.  Let the mask c_1 be 0 and c_(k+1) be 1
followed by the complement of c_k (0, 11, 100, 1011, ...), let Phi XOR a
word's marks with the mask of its length, and let sigma flip every mark.
Then ``diamond(u, v) == Phi(sigma(Phi(u) + Phi(v)))``, with ``+`` plain
concatenation, and ``alpha_word(w) == Phi(sigma(Phi(w)))``.  So through Phi,
its own inverse, (words, diamond, alpha_word) is the Yau twist
(sigma . concatenation, sigma) of the free semigroup on X x {0, 1} by the
mark swap.  The tests check it as a product oracle
(test_products_are_the_twist_of_concatenation_by_the_mask) and as an
``extend`` oracle with no fold, on every order-4 lawful class
(test_extend_is_the_twisted_product_of_the_masked_images).

A ``Word`` is packed: a tuple of ``names`` plus one int of ``bits``, the
last letter at bit 0.  The involution is an XOR with ``(1 << len) - 1``, and
the closed-form product a tuple concat plus a shift and an OR.  Names are
checked once, where they come in; ``Word.letters`` is a read-only view.
Only this module reads the packed form: others build and read words as
(name, mark) pairs with ``_encode`` and ``_decode``, print them with ``_text``,
and factor them with ``_split``.

Everything here is an immutable value and every operation is a pure
function, so concurrent use needs no coordination.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterable, Iterator, Sequence, Tuple

from ._record import _Record

# The one rule for a generator name; the expression tokenizer uses it too.
NAME_PATTERN = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME_RE = re.compile(NAME_PATTERN + r"\Z")


def _check_name(name) -> None:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ValueError(f"bad generator name {name!r}: need {NAME_PATTERN}")


class Letter(_Record):
    """One generator occurrence with its exponent bit (0 bare, 1 bracketed)."""

    __slots__ = ("name", "bit")

    def __init__(self, name: str, bit: int = 0) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "bit", bit)
        _check_name(name)
        if bit not in (0, 1):
            raise ValueError(f"exponent bit must be 0 or 1, got {bit!r}")

    def flipped(self) -> Letter:
        return Letter(self.name, (self.bit + 1) % 2)

    def __str__(self) -> str:
        return f"[{self.name}]" if self.bit else self.name


class Word:
    """Nonempty sequence of letters, stored as ``names`` and ``bits``.

    There is deliberately no empty word: the structure is a semigroup, not a
    monoid, so emptiness is rejected at construction instead of normalized.
    """

    __slots__ = ("names", "bits", "_hash")

    def __new__(cls, letters: Sequence[Letter]) -> Word:
        letters = tuple(letters)
        if not letters:
            raise ValueError("empty word: a word has at least one letter")
        for entry in letters:
            if not isinstance(entry, Letter):
                raise TypeError(f"word entries must be Letter, got {entry!r}")
        return _encode((entry.name, "1" if entry.bit else "0") for entry in letters)

    @property
    def letters(self) -> Tuple[Letter, ...]:
        return tuple(Letter(n, int(m)) for n, m in _decode(self))

    def __setattr__(self, name, *value):
        raise AttributeError(f"a Word is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return (_packed, (self.names, self.bits))

    def __eq__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return self.bits == other.bits and self.names == other.names

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __str__(self) -> str:
        return _text(_decode(self))

    def __repr__(self) -> str:
        return f"parse_word({str(self)!r})"


# The slots' own setters, which Word.__setattr__ does not block.
_set_names, _set_bits, _set_hash = (getattr(Word, s).__set__ for s in Word.__slots__)


def _packed(names: Tuple[str, ...], bits: int) -> Word:
    """A word from names already checked and their bits, with no checks."""
    w = object.__new__(Word)
    _set_names(w, names)
    _set_bits(w, bits)
    _set_hash(w, hash((names, bits)))
    return w


def _encode(pairs: Iterable[Tuple[str, str]]) -> Word:
    """A word from one or more (name, mark) pairs: names checked, marks '0' or '1'."""
    names, marks = zip(*pairs)
    return _packed(names, int("".join(marks), 2))


def _decode(w: Word) -> Iterator[Tuple[str, str]]:
    """The (name, mark) pairs of a word, first letter first; _encode's inverse."""
    return zip(w.names, format(w.bits, "0%db" % len(w.names)))


def _text(pairs: Iterable[Tuple[str, str]]) -> str:
    """A word's text from its (name, mark) pairs: each name, bracketed for mark '1'."""
    return " ".join([f"[{n}]" if m == "1" else n for n, m in pairs])


def _split(w: Word, s: int) -> Tuple[Word, Word]:
    """The unique (u, v) with len(u) == s and diamond(u, v) == w, 0 < s < len(w)."""
    m = len(w.names) - s
    tail = (w.bits if s % 2 else ~w.bits) & ((1 << m) - 1)  # undo the twist on the suffix
    return _packed(w.names[:s], (w.bits >> m) ^ ((1 << s) - 2)), _packed(w.names[s:], tail)


def embed(name: str) -> Word:
    """Include a generator as the one-letter word with exponent bit 0."""
    _check_name(name)
    return _packed((name,), 0)


def parse_word(text: str) -> Word:
    """Parse plain word syntax: whitespace-separated atoms ``name`` or ``[name]``."""
    atoms = text.split()
    if not atoms:
        raise ValueError("empty word: a word has at least one letter")
    names, marks = [], []
    for atom in atoms:
        bracketed = atom.startswith("[") and atom.endswith("]") and len(atom) > 2
        name = atom[1:-1] if bracketed else atom
        _check_name(name)
        names.append(name)
        marks.append("1" if bracketed else "0")
    return _packed(tuple(names), int("".join(marks), 2))


def render_word(w: Word) -> str:
    """Canonical text form; exact inverse of parse_word."""
    return str(w)


def word_length(w: Word) -> int:
    return len(w.names)


def concat(w: Word, w2: Word) -> Word:
    """Plain juxtaposition (the free-semigroup product, not the twisted one)."""
    return _packed(w.names + w2.names, (w.bits << len(w2.names)) | w2.bits)


def alpha_word(w: Word) -> Word:
    """Flip every letter's exponent bit.  An involution, and letterwise."""
    return _packed(w.names, w.bits ^ ((1 << len(w.names)) - 1))


def alpha_power(w: Word, n: int) -> Word:
    """Apply alpha_word n times; only the parity of n matters."""
    return alpha_word(w) if n % 2 else w


def diamond(w: Word, w2: Word) -> Word:
    """Twisted product, by its defining recursion.

    A single-letter left factor concatenates onto the right factor.
    Otherwise the first letter is flipped and prepended to
    ``diamond(rest-of-left, alpha_word(right))``; the loop takes those
    steps in order until one letter of the left factor is left.  Each step
    flips one bit of the left factor and every bit of the right one.
    """
    bits, right, m = w.bits, w2.bits, len(w2.names)
    everything = (1 << m) - 1
    for position in range(len(w.names) - 1, 0, -1):
        bits ^= 1 << position
        right ^= everything
    return _packed(w.names + w2.names, (bits << m) | right)


def diamond_closed(w: Word, w2: Word) -> Word:
    """Twisted product in closed form.

    Flip the bits of all but the last letter of the left factor, keep its last
    letter, then append the right factor with every bit flipped iff the left
    factor has even length.  Straight-line, sharing no loop with diamond(), so
    the two serve as mutual oracles.
    """
    n, m = len(w.names), len(w2.names)
    head = w.bits ^ ((1 << n) - 2)
    tail = w2.bits if n % 2 else w2.bits ^ ((1 << m) - 1)
    return _packed(w.names + w2.names, (head << m) | tail)


def iter_words(names: Sequence[str], max_len: int) -> Iterator[Word]:
    """All words over the given generators up to max_len, shortest first.

    Per length, iteration is the product order over the alphabet listed as
    name, [name], next name, ... so streams are reproducible.
    """
    for name in names:
        _check_name(name)
    alphabet = [(name, mark) for name in names for mark in "01"]
    for m in range(1, max_len + 1):
        yield from map(_encode, itertools.product(alphabet, repeat=m))
