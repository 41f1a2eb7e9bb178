"""Finite structures with a binary product and a unary map, as Cayley tables.

Everything here is small enough to check laws exhaustively.  Checkers return
the first counterexample in index order (reported as labels) or None, so a
failing structure always produces the same witness.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ._record import _Record


class FiniteHomMagma(_Record):
    """A finite carrier with product table ``mul`` and unary table ``alpha``.

    labels: one name per element, all distinct and nonempty.
    mul:    n by n table of element indices, mul[i][j] = index of i * j.
    alpha:  n element indices, alpha[i] = index of the image of i.
    Each is stored as a tuple, the table as a tuple of row tuples.
    """

    __slots__ = ("labels", "mul", "alpha")

    def __init__(self, labels: Sequence[str], mul: Sequence[Sequence[int]], alpha: Sequence[int]):
        labels = tuple(labels)
        mul = tuple(tuple(row) for row in mul)
        alpha = tuple(alpha)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "mul", mul)
        object.__setattr__(self, "alpha", alpha)
        n = len(labels)
        if n == 0:
            raise ValueError("a structure has at least one element")
        for i, lab in enumerate(labels):
            if not isinstance(lab, str) or not lab:
                raise ValueError("labels entry %d must be a nonempty string" % i)
            try:
                lab.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError("labels entry %d is not encodable as UTF-8" % i) from None
            if lab in labels[:i]:
                raise ValueError("labels entry %d repeats %r" % (i, lab))
        if len(mul) != n:
            raise ValueError("mul must have %d rows" % n)
        for r, row in enumerate(mul):
            if len(row) != n:
                raise ValueError("mul row %d must have %d entries" % (r, n))
            for c, v in enumerate(row):
                if not isinstance(v, int) or not 0 <= v < n:
                    raise ValueError("mul row %d, column %d: not an index" % (r, c))
        if len(alpha) != n:
            raise ValueError("alpha must have %d entries" % n)
        for c, v in enumerate(alpha):
            if not isinstance(v, int) or not 0 <= v < n:
                raise ValueError("alpha entry %d: not an index" % c)

    @property
    def order(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError("unknown label %r" % (label,)) from None


# The law kernel: the first violation in index order, as indices, or None.
# The census scan calls it once per candidate, hence the shared range object.


def _hom_witness(mul, alpha, n) -> Optional[Tuple[int, int, int]]:
    r = range(n)
    for i in r:
        ai = alpha[i]
        for j in r:
            mij = mul[i][j]
            for k in r:
                if mul[ai][mul[j][k]] != mul[mij][alpha[k]]:
                    return (i, j, k)
    return None


def _assoc_witness(mul, n) -> Optional[Tuple[int, int, int]]:
    r = range(n)
    for i in r:
        for j in r:
            mij = mul[i][j]
            for k in r:
                if mul[mij][k] != mul[i][mul[j][k]]:
                    return (i, j, k)
    return None


def _mult_witness(mul, alpha, n) -> Optional[Tuple[int, int]]:
    r = range(n)
    for i in r:
        for j in r:
            if alpha[mul[i][j]] != mul[alpha[i]][alpha[j]]:
                return (i, j)
    return None


def _invol_witness(alpha, n) -> Optional[int]:
    for i in range(n):
        if alpha[alpha[i]] != i:
            return i
    return None


def _as_labels(m: FiniteHomMagma, idx):
    return None if idx is None else tuple(m.labels[i] for i in idx)


def check_hom_associative(m: FiniteHomMagma) -> Optional[Tuple[str, str, str]]:
    """First triple (as labels) violating alpha(x)(yz) = (xy)alpha(z)."""
    return _as_labels(m, _hom_witness(m.mul, m.alpha, m.order))


def check_associative(m: FiniteHomMagma) -> Optional[Tuple[str, str, str]]:
    """First triple (as labels) violating (xy)z = x(yz)."""
    return _as_labels(m, _assoc_witness(m.mul, m.order))


def check_multiplicative(m: FiniteHomMagma) -> Optional[Tuple[str, str]]:
    """First pair (as labels) violating alpha(xy) = alpha(x)alpha(y)."""
    return _as_labels(m, _mult_witness(m.mul, m.alpha, m.order))


def check_involutive_alpha(m: FiniteHomMagma) -> Optional[str]:
    """First element (as a label) violating alpha(alpha(x)) = x."""
    i = _invol_witness(m.alpha, m.order)
    return None if i is None else m.labels[i]


_LAW_ROWS = (
    ("hom-associative", "hom_associative", "hom_witness", check_hom_associative),
    ("associative", "associative", "assoc_witness", check_associative),
    ("multiplicative", "multiplicative", "mult_witness", check_multiplicative),
    ("involutive alpha", "involutive_alpha", "invol_witness", check_involutive_alpha),
)


class LawReport(_Record):
    """Outcome of the four law checks, each with its witness when it fails."""

    __slots__ = (
        "hom_associative", "associative", "multiplicative", "involutive_alpha",
        "hom_witness", "assoc_witness", "mult_witness", "invol_witness",
    )

    def __init__(
        self,
        hom_associative: bool,
        associative: bool,
        multiplicative: bool,
        involutive_alpha: bool,
        hom_witness: Optional[Tuple[str, str, str]] = None,
        assoc_witness: Optional[Tuple[str, str, str]] = None,
        mult_witness: Optional[Tuple[str, str]] = None,
        invol_witness: Optional[str] = None,
    ):
        object.__setattr__(self, "hom_associative", hom_associative)
        object.__setattr__(self, "associative", associative)
        object.__setattr__(self, "multiplicative", multiplicative)
        object.__setattr__(self, "involutive_alpha", involutive_alpha)
        object.__setattr__(self, "hom_witness", hom_witness)
        object.__setattr__(self, "assoc_witness", assoc_witness)
        object.__setattr__(self, "mult_witness", mult_witness)
        object.__setattr__(self, "invol_witness", invol_witness)
        for _, flag_field, wit_field, _ in _LAW_ROWS:
            flag = getattr(self, flag_field)
            wit = getattr(self, wit_field)
            if flag == (wit is not None):
                raise ValueError(
                    "%s: a law holds exactly when it has no witness" % flag_field
                )

    def as_text(self) -> str:
        lines = []
        for name, flag_field, wit_field, _ in _LAW_ROWS:
            flag = getattr(self, flag_field)
            line = name.ljust(17) + ("yes" if flag else "no")
            if not flag:
                wit = getattr(self, wit_field)
                parts = wit if isinstance(wit, tuple) else (wit,)
                line += "  witness: " + " ".join(parts)
            lines.append(line)
        return "\n".join(lines)


def classify(m: FiniteHomMagma) -> LawReport:
    fields = {}
    for _, flag_field, wit_field, check in _LAW_ROWS:
        wit = check(m)
        fields[flag_field], fields[wit_field] = wit is None, wit
    return LawReport(**fields)


def has_zero(m: FiniteHomMagma) -> Optional[int]:
    """Index of an absorbing element (zs = sz = z for all s), or None.

    The one-element structure is not counted as having a zero; adjoining is
    only skipped when an absorbing element sits inside something larger.
    """
    if m.order < 2:
        return None
    for z in range(m.order):
        if all(m.mul[z][s] == z and m.mul[s][z] == z for s in range(m.order)):
            return z
    return None


def adjoin_zero(m: FiniteHomMagma) -> FiniteHomMagma:
    """Make a semigroup hom-associative by sending alpha onto a zero.

    The product must already be associative.  If the carrier has an absorbing
    element, alpha is redirected to it and nothing else changes; otherwise a
    fresh absorbing element is appended.  The result is hom-associative and
    multiplicative (alpha is the constant zero map, not an involution), and
    the construction is idempotent.
    """
    wit = check_associative(m)
    if wit is not None:
        raise ValueError(
            "adjoin_zero needs an associative product, violated at (%s, %s, %s)"
            % wit
        )
    z = has_zero(m)
    if z is not None:
        return FiniteHomMagma(m.labels, m.mul, (z,) * m.order)
    name = "0"
    while name in m.labels:
        name += "_"
    n = m.order
    mul = tuple(tuple(row) + (n,) for row in m.mul) + ((n,) * (n + 1),)
    return FiniteHomMagma(m.labels + (name,), mul, (n,) * (n + 1))


def relabel(m: FiniteHomMagma, perm: Sequence[int]) -> FiniteHomMagma:
    """Transport the structure along a permutation of positions.

    Element i moves to position perm[i] and keeps its label, so the result
    is isomorphic to the input and every classification is unchanged.
    """
    n = m.order
    if sorted(perm) != list(range(n)):
        raise ValueError("perm must be a permutation of the element indices")
    labels = [""] * n
    alpha = [0] * n
    mul = [[0] * n for _ in range(n)]
    for i in range(n):
        labels[perm[i]] = m.labels[i]
        alpha[perm[i]] = perm[m.alpha[i]]
        for j in range(n):
            mul[perm[i]][perm[j]] = perm[m.mul[i][j]]
    return FiniteHomMagma(tuple(labels), tuple(tuple(r) for r in mul), tuple(alpha))


def fixture(name: str) -> FiniteHomMagma:
    """Worked three-element structures on the labels x, y, z.

    "hom_not_sg":  hom-associative and multiplicative but not associative,
                   with alpha the constant map onto z.
    "involutive":  hom-associative, multiplicative, alpha swaps x and y.
    """
    if name == "hom_not_sg":
        mul = ((1, 0, 2), (1, 1, 2), (2, 2, 2))
        alpha = (2, 2, 2)
    elif name == "involutive":
        mul = ((1, 0, 2), (1, 0, 2), (2, 2, 2))
        alpha = (1, 0, 2)
    else:
        raise ValueError("unknown fixture %r" % (name,))
    return FiniteHomMagma(("x", "y", "z"), mul, alpha)


def structure_to_dict(m: FiniteHomMagma) -> dict:
    """Label-based dict form, the shape used by the JSON structure files."""
    return {
        "labels": list(m.labels),
        "mul": [[m.labels[v] for v in row] for row in m.mul],
        "alpha": [m.labels[v] for v in m.alpha],
    }


def structure_from_dict(data: object) -> FiniteHomMagma:
    """Parse the dict form, reporting the offending position on bad input.

    Only the dict form is checked here; FiniteHomMagma checks the rest.
    """
    if not isinstance(data, dict):
        raise ValueError("structure must be an object with labels, mul, alpha")
    for key in ("labels", "mul", "alpha"):
        if key not in data:
            raise ValueError("structure is missing %r" % (key,))
        if not isinstance(data[key], list):
            raise ValueError("%s must be a list" % key)
    labels = data["labels"]
    pos = {lab: i for i, lab in enumerate(labels) if isinstance(lab, str)}

    def index(v, where, *at):
        if not isinstance(v, str) or v not in pos:
            raise ValueError(where % at + ": unknown label %r" % (v,))
        return pos[v]

    mul = []
    for r, row in enumerate(data["mul"]):
        if not isinstance(row, list):
            raise ValueError("mul row %d must be a list" % r)
        mul.append(
            tuple(index(v, "mul row %d, column %d", r, c) for c, v in enumerate(row))
        )
    alpha = tuple(index(v, "alpha entry %d", c) for c, v in enumerate(data["alpha"]))
    return FiniteHomMagma(tuple(labels), tuple(mul), alpha)
