"""Record how parse_expression answers a seeded corpus of short texts.

    PYTHONPATH=src python3 tools/parser_corpus.py > tests/data/parser_corpus.json

Each case is [text, "ok", repr(parse_expression(text))] or [text, "error",
str(ParseError)].  tests/test_expressions.py compares the parser against the
stored file byte for byte, so run this only on a commit whose parser is the
reference, and re-record only when its output is meant to change.

The texts mix the pieces of the expression language (names, 'A', 'A_', the
brackets, parentheses, operators, integers and '3/2 .') with the whitespace
it skips (space, tab, carriage return, newline) and characters it refuses
('\\x0c', 'é'): random runs of pieces, and expressions from the grammar with
random whitespace, half of them with one random edit.  The named cases come
first, and each text appears once.  Standard library only.
"""

import json
import random
import sys

from invhom.expressions import ParseError, parse_expression

SEED = 24
NAMED = ["[[ y ]", "[\ry/", "x0*[_[A]2", "(x) y z", "2 x y"]
NAMES = ["x", "y", "z", "x0", "ab_1", "_", "A_", "Ab"]
PIECES = NAMES + ["A", "[", "]", "(", ")", "+", "-", "*", "/", ".", "0", "2", "12", "3/2 ."]
SPACES = [" ", "\t", "\r", "\n"]
ODD = ["\x0c", "é"]


def soup(rng):
    pool = PIECES + SPACES + ODD
    return "".join(rng.choice(pool) + rng.choice(["", "", " "]) for _ in range(rng.randint(1, 10)))


def space(rng):
    return rng.choice(["", "", " ", " ", " ", rng.choice(SPACES) * rng.randint(1, 2)])


def atom(rng):
    name = rng.choice(NAMES)
    return name if rng.random() < 0.6 else "[%s%s%s]" % (space(rng), name, space(rng))


def expr(rng, depth):
    def sep():
        return space(rng) or " "

    r = rng.random()
    if depth > 2 or r < 0.4:  # a word literal, maybe scaled
        word = sep().join(atom(rng) for _ in range(rng.randint(1, 4)))
        if rng.random() < 0.2:
            word = rng.choice(["2", "3/2", "12", "0"]) + space(rng) + "." + space(rng) + word
        return word
    if r < 0.55:
        return "A" + space(rng) + "(" + space(rng) + expr(rng, depth + 1) + space(rng) + ")"
    if r < 0.7:
        return "(" + space(rng) + expr(rng, depth + 1) + space(rng) + ")"
    if r < 0.8:
        return "-" + space(rng) + expr(rng, depth + 1)
    op = rng.choice(["*", "*", "+", "-"])
    return expr(rng, depth + 1) + space(rng) + op + space(rng) + expr(rng, depth + 1)


def edit(rng, text):
    k = rng.randint(0, len(text))
    r = rng.random()
    if r < 0.4:
        return text[:k] + rng.choice(PIECES + SPACES + ODD) + text[k:]
    if r < 0.7:
        return text[:k] + text[k + 1:]
    return text[:k] + rng.choice(PIECES + SPACES + ODD) + text[k + 1:]


def texts(seed=SEED, soups=1000, grammar=2000):
    rng = random.Random(seed)
    out = list(NAMED)
    out += [soup(rng) for _ in range(soups)]
    for k in range(grammar):
        text = space(rng) + expr(rng, 0) + space(rng)
        out.append(edit(rng, text) if k % 2 else text)
    return list(dict.fromkeys(out))  # each text once, in first-seen order


def answer(text):
    try:
        return [text, "ok", repr(parse_expression(text))]
    except ParseError as err:
        return [text, "error", str(err)]


def main():
    cases = [answer(text) for text in texts()]
    sys.stdout.write("[\n%s\n]\n" % ",\n".join(json.dumps(case) for case in cases))


if __name__ == "__main__":
    main()
