"""Bracketed words and the twisted product.

The carrier is the set of nonempty sequences of "bracketed letters": named
generators each carrying an exponent bit.  Bit 0 prints as the bare name,
bit 1 as ``[name]``.  The involution flips every bit; the twisted product
concatenates when the left factor is a single letter and otherwise recurses
with a bit flip.  Together these make the set of words a free involutive
Hom-semigroup on the generator names.

Everything here is an immutable value and every operation is a pure
function, so concurrent use needs no coordination.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterator, Sequence

# The one rule for a generator name; the expression tokenizer uses it too.
NAME_PATTERN = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME_RE = re.compile(NAME_PATTERN + r"\Z")


@dataclass(frozen=True)
class Letter:
    """One generator occurrence with its exponent bit (0 bare, 1 bracketed)."""

    name: str
    bit: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not _NAME_RE.match(self.name):
            raise ValueError(
                f"bad generator name {self.name!r}: need {NAME_PATTERN}"
            )
        if self.bit not in (0, 1):
            raise ValueError(f"exponent bit must be 0 or 1, got {self.bit!r}")

    def flipped(self) -> Letter:
        return Letter(self.name, (self.bit + 1) % 2)

    def __str__(self) -> str:
        return f"[{self.name}]" if self.bit else self.name


@dataclass(frozen=True)
class Word:
    """Nonempty sequence of letters.

    There is deliberately no empty word: the structure is a semigroup, not a
    monoid, so emptiness is rejected at construction instead of normalized.
    """

    letters: tuple[Letter, ...]

    def __post_init__(self) -> None:
        letters = tuple(self.letters)
        if not letters:
            raise ValueError("empty word: a word has at least one letter")
        for entry in letters:
            if not isinstance(entry, Letter):
                raise TypeError(f"word entries must be Letter, got {entry!r}")
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __str__(self) -> str:
        return " ".join(str(letter) for letter in self.letters)

    def __repr__(self) -> str:
        return f"parse_word({str(self)!r})"


def embed(name: str) -> Word:
    """Include a generator as the one-letter word with exponent bit 0."""
    return Word((Letter(name, 0),))


def parse_word(text: str) -> Word:
    """Parse plain word syntax: whitespace-separated atoms ``name`` or ``[name]``."""
    atoms = text.split()
    if not atoms:
        raise ValueError("empty word: a word has at least one letter")
    letters = []
    for atom in atoms:
        if atom.startswith("[") and atom.endswith("]") and len(atom) > 2:
            letters.append(Letter(atom[1:-1], 1))
        else:
            letters.append(Letter(atom, 0))
    return Word(tuple(letters))


def render_word(w: Word) -> str:
    """Canonical text form; exact inverse of parse_word."""
    return str(w)


def word_length(w: Word) -> int:
    return len(w.letters)


def concat(w: Word, w2: Word) -> Word:
    """Plain juxtaposition (the free-semigroup product, not the twisted one)."""
    return Word(w.letters + w2.letters)


def alpha_word(w: Word) -> Word:
    """Flip every letter's exponent bit.  An involution, and letterwise."""
    return Word(tuple(letter.flipped() for letter in w.letters))


def alpha_power(w: Word, n: int) -> Word:
    """Apply alpha_word n times; only the parity of n matters."""
    return alpha_word(w) if n % 2 else w


def diamond(w: Word, w2: Word) -> Word:
    """Twisted product, by its defining recursion.

    A single-letter left factor concatenates onto the right factor.
    Otherwise the first letter is flipped and prepended to
    ``diamond(rest-of-left, alpha_word(right))``; the loop takes those
    steps in order until one letter of the left factor is left.
    """
    head = []
    for letter in w.letters[:-1]:
        head.append(letter.flipped())
        w2 = alpha_word(w2)
    return Word(tuple(head) + w.letters[-1:] + w2.letters)


def diamond_closed(w: Word, w2: Word) -> Word:
    """Twisted product in closed form.

    Flip the bits of all but the last letter of the left factor, keep its last
    letter, then append the right factor with every bit flipped iff the left
    factor has even length.  Implemented loop-only, sharing no recursion with
    diamond(), so the two serve as mutual oracles.
    """
    i = len(w.letters)
    head = tuple(Letter(l.name, (l.bit + 1) % 2) for l in w.letters[:-1])
    head += (w.letters[-1],)
    if (i - 1) % 2:
        tail = tuple(Letter(l.name, (l.bit + 1) % 2) for l in w2.letters)
    else:
        tail = w2.letters
    return Word(head + tail)


def iter_words(names: Sequence[str], max_len: int) -> Iterator[Word]:
    """All words over the given generators up to max_len, shortest first.

    Per length, iteration is the product order over the alphabet listed as
    name, [name], next name, ... so streams are reproducible.
    """
    alphabet = [Letter(name, bit) for name in names for bit in (0, 1)]
    for m in range(1, max_len + 1):
        for combo in itertools.product(alphabet, repeat=m):
            yield Word(combo)
