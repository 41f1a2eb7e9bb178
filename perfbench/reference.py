"""Reference computations the benchmark checks the program against.

Nothing here imports the package under test.  Words are tuples of
``(name, bit)`` pairs, combinations are dicts from such tuples to Fractions,
and finite tables are plain nested tuples of indices.
"""

from __future__ import annotations

from fractions import Fraction


# ---------------------------------------------------------------- words

def flip(word):
    return tuple((name, 1 - bit) for name, bit in word)


def diamond(u, v):
    """Twisted product in closed form: flip all of u but its last letter,
    then append v, flipped when u has even length."""
    return flip(u[:-1]) + u[-1:] + (flip(v) if len(u) % 2 == 0 else v)


def word_text(word):
    return " ".join("[%s]" % name if bit else name for name, bit in word)


def parse_word_text(text):
    out = []
    for atom in text.split():
        if atom.startswith("["):
            out.append((atom[1:-1], 1))
        else:
            out.append((atom, 0))
    return tuple(out)


# ---------------------------------------------------------------- combinations

def add_into(acc, word, coeff):
    total = acc.get(word, 0) + coeff
    if total:
        acc[word] = total
    else:
        acc.pop(word, None)


def comb_product(a, b):
    acc = {}
    for u, cu in a.items():
        for v, cv in b.items():
            add_into(acc, diamond(u, v), cu * cv)
    return acc


def parse_combination(text):
    """Read the printed form of a combination back into a dict.

    Returns None when the text is not well formed or repeats a term, so a
    garbled output cannot pass as a correct one.
    """
    if text == "0":
        return {}
    toks = text.split()
    acc = {}
    sign = 1
    i = 0
    if toks and toks[0].startswith("-") and toks[0] != "-":
        sign = -1
        toks[0] = toks[0][1:]
    while i < len(toks):
        coeff = Fraction(1)
        if i + 1 < len(toks) and toks[i + 1] == ".":
            try:
                coeff = Fraction(toks[i])
            except ValueError:
                return None
            i += 2
        atoms = []
        while i < len(toks) and toks[i] not in ("+", "-"):
            atoms.append(toks[i])
            i += 1
        if not atoms:
            return None
        word = parse_word_text(" ".join(atoms))
        if word in acc:
            return None
        acc[word] = sign * coeff
        if i < len(toks):
            sign = 1 if toks[i] == "+" else -1
            i += 1
            if i == len(toks):
                return None
    return acc


def term_order_ok(comb):
    """The printed terms come shortest first, then by (name, bit) tuples."""
    keys = [(len(w), w) for w in comb]
    return keys == sorted(keys) and len(comb) == len(set(keys))


# ---------------------------------------------------------------- finite tables

def first_hom_failure(mul, alpha):
    n = len(alpha)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if mul[alpha[i]][mul[j][k]] != mul[mul[i][j]][alpha[k]]:
                    return (i, j, k)
    return None


def first_assoc_failure(mul):
    n = len(mul)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if mul[mul[i][j]][k] != mul[i][mul[j][k]]:
                    return (i, j, k)
    return None


def first_mult_failure(mul, alpha):
    n = len(alpha)
    for i in range(n):
        for j in range(n):
            if alpha[mul[i][j]] != mul[alpha[i]][alpha[j]]:
                return (i, j)
    return None


def first_invol_failure(alpha):
    for i in range(len(alpha)):
        if alpha[alpha[i]] != i:
            return (i,)
    return None


def law_report_lines(labels, mul, alpha):
    """The four lines `invhom check` prints, from the plain loops above."""
    rows = (
        ("hom-associative", first_hom_failure(mul, alpha)),
        ("associative", first_assoc_failure(mul)),
        ("multiplicative", first_mult_failure(mul, alpha)),
        ("involutive alpha", first_invol_failure(alpha)),
    )
    lines = []
    for name, wit in rows:
        line = name.ljust(17) + ("yes" if wit is None else "no")
        if wit is not None:
            line += "  witness: " + " ".join(labels[i] for i in wit)
        lines.append(line)
    return lines


def lawful(mul, alpha):
    """Hom-associative, multiplicative, and with an involutive alpha."""
    return (
        first_invol_failure(alpha) is None
        and first_mult_failure(mul, alpha) is None
        and first_hom_failure(mul, alpha) is None
    )


def fold(mul, alpha, images, word):
    """Image of a word under the extension of ``images``: right fold."""
    value = None
    for name, bit in reversed(word):
        img = alpha[images[name]] if bit else images[name]
        value = img if value is None else mul[img][value]
    return value
