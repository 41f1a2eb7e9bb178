import pytest
from hypothesis import given
from hypothesis import strategies as st

from invhom.finite import (
    FiniteHomMagma,
    LawReport,
    adjoin_zero,
    check_associative,
    check_hom_associative,
    check_involutive_alpha,
    check_multiplicative,
    classify,
    fixture,
    has_zero,
    relabel,
    structure_from_dict,
    structure_to_dict,
)


def quad(m):
    r = classify(m)
    return (r.hom_associative, r.associative, r.multiplicative, r.involutive_alpha)


# ---------------------------------------------------------------- fixtures

def test_hom_not_sg_fixture_classification():
    m = fixture("hom_not_sg")
    assert quad(m) == (True, False, True, False)
    assert check_associative(m) == ("x", "x", "x")
    assert check_involutive_alpha(m) == "x"


def test_involutive_fixture_classification():
    m = fixture("involutive")
    assert quad(m) == (True, False, True, True)
    assert check_associative(m) == ("x", "x", "x")


def test_involutive_fixture_spot_identity():
    # alpha(x)(yx) = (xy)alpha(x) = x in the swap structure
    m = fixture("involutive")
    x, y = 0, 1
    lhs = m.mul[m.alpha[x]][m.mul[y][x]]
    rhs = m.mul[m.mul[x][y]][m.alpha[x]]
    assert lhs == rhs == x


def test_unknown_fixture():
    with pytest.raises(ValueError):
        fixture("commutative")


# ---------------------------------------------------------------- checkers

def test_multiplicativity_witness_is_first_pair():
    # constant product with a swapping alpha: alpha(aa) = b but alpha(a)^2 = a
    m = FiniteHomMagma(("a", "b"), ((0, 0), (0, 0)), (1, 0))
    assert check_multiplicative(m) == ("a", "a")


def test_hom_check_on_a_plain_group():
    # Z/3 with identity alpha is associative, hence hom-associative
    table = tuple(tuple((i + j) % 3 for j in range(3)) for i in range(3))
    m = FiniteHomMagma(("e", "g", "h"), table, (0, 1, 2))
    assert quad(m) == (True, True, True, True)


def test_witnesses_are_index_lexicographic():
    # right-zero product breaks hom-associativity with a constant alpha:
    # alpha(x)(yz) = z but (xy)alpha(z) = a, first failure at (a, a, b)
    m = FiniteHomMagma(("a", "b"), ((0, 1), (0, 1)), (0, 0))
    assert check_hom_associative(m) == ("a", "a", "b")


def test_structure_validation():
    with pytest.raises(ValueError):
        FiniteHomMagma((), (), ())
    with pytest.raises(ValueError, match="labels entry 1"):
        FiniteHomMagma(("a", "a"), ((0, 0), (0, 0)), (0, 0))
    with pytest.raises(ValueError, match="labels entry 1"):
        FiniteHomMagma(("a", ""), ((0, 0), (0, 0)), (0, 0))
    with pytest.raises(ValueError):
        FiniteHomMagma(("a", "b"), ((0, 0),), (0, 0))
    with pytest.raises(ValueError, match="mul row 1"):
        FiniteHomMagma(("a", "b"), ((0, 0), (0,)), (0, 0))
    with pytest.raises(ValueError, match="row 0, column 1"):
        FiniteHomMagma(("a", "b"), ((0, 2), (0, 0)), (0, 0))
    with pytest.raises(ValueError):
        FiniteHomMagma(("a", "b"), ((0, 0), (0, 0)), (0,))
    with pytest.raises(ValueError, match="alpha entry 1"):
        FiniteHomMagma(("a", "b"), ((0, 0), (0, 0)), (0, -1))


def test_law_report_rejects_inconsistent_witnesses():
    with pytest.raises(ValueError):
        LawReport(
            hom_associative=True,
            associative=True,
            multiplicative=True,
            involutive_alpha=True,
            hom_witness=("a", "a", "a"),
        )
    with pytest.raises(ValueError):
        LawReport(
            hom_associative=False,
            associative=True,
            multiplicative=True,
            involutive_alpha=True,
        )


def test_report_text_lists_all_four_laws():
    text = classify(fixture("hom_not_sg")).as_text()
    lines = text.split("\n")
    assert len(lines) == 4
    assert lines[0].endswith("yes")
    assert "witness: x x x" in lines[1]
    assert "witness: x" in lines[3]


# ---------------------------------------------------------------- zeros

def test_fixture_has_zero_z():
    assert has_zero(fixture("hom_not_sg")) == 2
    assert has_zero(fixture("involutive")) == 2


def test_trivial_structure_has_no_zero_by_convention():
    m = FiniteHomMagma(("a",), ((0,),), (0,))
    assert has_zero(m) is None


def test_adjoin_zero_requires_associativity():
    with pytest.raises(ValueError, match=r"\(x, x, x\)"):
        adjoin_zero(fixture("hom_not_sg"))


def test_adjoin_zero_appends_when_no_zero_exists():
    # left-zero semigroup xy = x has no absorbing element
    m = FiniteHomMagma(("a", "b"), ((0, 0), (1, 1)), (0, 1))
    out = adjoin_zero(m)
    assert out.labels == ("a", "b", "0")
    assert out.alpha == (2, 2, 2)
    assert has_zero(out) == 2
    assert quad(out) == (True, True, True, False)


def test_adjoin_zero_reuses_an_existing_zero():
    table = tuple(tuple((i + j) % 3 for j in range(3)) for i in range(3))
    m = FiniteHomMagma(("e", "g", "h"), table, (0, 1, 2))
    grown = adjoin_zero(adjoin_zero(m))
    assert grown.order == 4
    assert grown.alpha == (3, 3, 3, 3)
    assert adjoin_zero(grown) == grown


def test_adjoin_zero_avoids_label_collisions():
    m = FiniteHomMagma(("0", "x"), ((0, 0), (0, 1)), (0, 1))
    # "0" names a non-absorbing element here?  it is absorbing, so reuse it
    assert adjoin_zero(m).labels == ("0", "x")
    m2 = FiniteHomMagma(("0",), ((0,),), (0,))
    assert adjoin_zero(m2).labels == ("0", "0_")


# ---------------------------------------------------------------- relabel

def test_relabel_is_an_isomorphism():
    m = fixture("involutive")
    out = relabel(m, (2, 0, 1))
    assert out.labels == ("y", "z", "x")
    assert quad(out) == quad(m)
    assert relabel(out, (1, 2, 0)) == m
    with pytest.raises(ValueError, match="permutation"):
        relabel(m, (0, 0, 1))


@given(
    st.integers(2, 3).flatmap(
        lambda n: st.tuples(
            st.tuples(
                *[
                    st.tuples(*[st.integers(0, n - 1) for _ in range(n)])
                    for _ in range(n)
                ]
            ),
            st.tuples(*[st.integers(0, n - 1) for _ in range(n)]),
            st.permutations(range(n)),
        )
    )
)
def test_classification_is_relabel_invariant(data):
    mul, alpha, perm = data
    n = len(alpha)
    m = FiniteHomMagma(tuple("abcd"[:n]), mul, alpha)
    assert quad(relabel(m, tuple(perm))) == quad(m)


# ---------------------------------------------------------------- dict form

def test_dict_round_trip():
    for name in ("hom_not_sg", "involutive"):
        m = fixture(name)
        assert structure_from_dict(structure_to_dict(m)) == m


def test_dict_form_uses_labels():
    d = structure_to_dict(fixture("involutive"))
    assert d["alpha"] == ["y", "x", "z"]
    assert d["mul"][0] == ["y", "x", "z"]


def test_dict_errors_carry_positions():
    good = structure_to_dict(fixture("involutive"))
    bad = {**good, "mul": [row[:] for row in good["mul"]]}
    bad["mul"][1][2] = "q"
    with pytest.raises(ValueError, match="row 1, column 2"):
        structure_from_dict(bad)
    bad2 = {**good, "alpha": ["y", "x", "w"]}
    with pytest.raises(ValueError, match="alpha entry 2"):
        structure_from_dict(bad2)
    with pytest.raises(ValueError, match="missing"):
        structure_from_dict({"labels": ["a"], "mul": [["a"]]})
    with pytest.raises(ValueError, match="alpha must be a list"):
        structure_from_dict({**good, "alpha": "yxz"})
    with pytest.raises(ValueError, match="labels entry 3"):
        structure_from_dict({**good, "labels": ["x", "y", "z", "z"]})
    with pytest.raises(ValueError, match="labels entry 0"):
        structure_from_dict({"labels": ["\ud800"], "mul": [["\ud800"]], "alpha": ["\ud800"]})
