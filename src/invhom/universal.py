"""Extending a choice of generator images to a morphism on all words.

An assignment sends each generator name to an element of a finite target.
It extends to every word: a letter carrying bit k goes to the k-th power of
the target's alpha applied to the assigned element, and longer words fold
the product in from the right.  For that extension to respect the twisted
product and intertwine the involutions, the target has to be
hom-associative, multiplicative, and carry an involutive alpha, so the
constructor enforces all three.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

from ._record import _Record
from .finite import (
    FiniteHomMagma,
    check_hom_associative,
    check_involutive_alpha,
    check_multiplicative,
)
from .words import Word, _check_name, _decode, _encode, _split, alpha_word, diamond, iter_words


# Each law an extension target needs: the name `eval` reports, the checker,
# and the constructor's message.
_TARGET_LAWS = (
    ("hom-associative", check_hom_associative, "target is not hom-associative"),
    ("multiplicative", check_multiplicative, "target alpha is not multiplicative"),
    ("involutive", check_involutive_alpha, "target alpha is not an involution"),
)


class _UnlawfulTarget(ValueError):
    """A target breaking a law the extension needs, with the law and witness."""

    def __init__(self, law: str, witness: Tuple[str, ...], message: str):
        super().__init__(message)
        self.law, self.witness = law, witness


def _require_lawful(target: FiniteHomMagma) -> None:
    """Raise _UnlawfulTarget for the first target law that fails."""
    for law, check, message in _TARGET_LAWS:
        wit = check(target)
        if wit is not None:
            parts = wit if isinstance(wit, tuple) else (wit,)
            shown = "(%s)" % ", ".join(wit) if isinstance(wit, tuple) else wit
            raise _UnlawfulTarget(law, parts, "%s, witness %s" % (message, shown))


class GeneratorAssignment(_Record):
    """Generator names sent to element indices of a lawful finite target."""

    __slots__ = ("target", "mapping")

    def __init__(self, target: FiniteHomMagma, mapping: Dict[str, int]):
        _require_lawful(target)
        mapping = dict(mapping)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "mapping", mapping)
        for name, v in mapping.items():
            _check_name(name)
            if not isinstance(v, int) or not 0 <= v < target.order:
                raise ValueError("generator %r must map to an element index" % name)

    @classmethod
    def from_labels(cls, target: FiniteHomMagma, mapping: Dict[str, str]):
        return cls(target, {n: target.index(lab) for n, lab in mapping.items()})


def extend(assign: GeneratorAssignment, w: Word) -> int:
    """Image of a word under the induced morphism, as a target index."""
    mapping, mul, al = assign.mapping, assign.target.mul, assign.target.alpha
    imgs = []  # left to right, so the leftmost unmapped generator is reported
    for name, mark in _decode(w):
        if name not in mapping:
            raise ValueError("no image assigned to generator %r" % name)
        img = mapping[name]
        imgs.append(al[img] if mark == "1" else img)
    img = imgs.pop()
    for left in reversed(imgs):
        img = mul[left][img]
    return img


def _random_word(rng: random.Random, names, max_len: int) -> Word:
    k = rng.randint(1, max_len)  # then a name and a mark per letter: the order a seed fixes
    return _encode([(rng.choice(names), str(rng.randint(0, 1))) for _ in range(k)])


def verify_morphism(
    assign: GeneratorAssignment,
    max_len: int = 6,
    samples: int = 1000,
    seed: int = 0,
) -> Optional[Tuple[Word, Word]]:
    """Randomized search for a pair of words where extension misbehaves.

    Each sample draws a pair (u, v) and checks the product law
    extend(u <> v) = extend(u) extend(v) together with intertwining on both
    words, extend(alpha(w)) = alpha(extend(w)).  Returns the first failing
    pair, or None when all samples pass.  Deterministic in the seed.
    """
    names = sorted(assign.mapping)
    if not names:
        raise ValueError("assignment has no generators")
    mul, al = assign.target.mul, assign.target.alpha
    for i in range(samples):
        rng = random.Random(seed * 0x9E3779B1 + i)
        u = _random_word(rng, names, max_len)
        v = _random_word(rng, names, max_len)
        fu = extend(assign, u)
        fv = extend(assign, v)
        if extend(assign, diamond(u, v)) != mul[fu][fv]:
            return (u, v)
        if extend(assign, alpha_word(u)) != al[fu]:
            return (u, v)
        if extend(assign, alpha_word(v)) != al[fv]:
            return (u, v)
    return None


def verify_uniqueness(
    assign: GeneratorAssignment, max_len: int = 4
) -> Optional[Tuple[Word, int]]:
    """Check that generator images force the whole morphism.

    A word of length n splits at every position s into a twisted product
    w = u <> v: flip all but the last letter of the prefix to get u, and
    undo the twist on the suffix to get v.  Any morphism that agrees on
    shorter words must therefore take the value extend(u) extend(v) at w.
    Returns the first (word, split) where extension breaks that, or None.
    """
    names = sorted(assign.mapping)
    if len(names) > 3 or max_len > 5:
        raise ValueError("exhaustive check is capped at 3 generators, length 5")
    mul = assign.target.mul
    for w in iter_words(names, max_len):
        image = extend(assign, w)
        for s in range(1, len(w)):
            u, v = _split(w, s)
            if image != mul[extend(assign, u)][extend(assign, v)]:
                return (w, s)
    return None
