"""The value records keep one contract: the repr text, == and hash over the
fields, immutability, construction with defaults, pattern matching, and
pickle and deepcopy round trips.  The package imports no dataclasses."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from invhom.census import Census
from invhom.finite import FiniteHomMagma, LawReport, classify, fixture
from invhom.universal import GeneratorAssignment
from invhom.words import Letter

_MUL = ((1, 0, 2), (1, 0, 2), (2, 2, 2))
_MAGMA_TEXT = "FiniteHomMagma(labels=('x', 'y', 'z'), mul=%r, alpha=(1, 0, 2))" % (_MUL,)


def _records():
    """(record, an equal one built apart, its repr, its fields) for each class."""
    target = fixture("involutive")
    report = classify(fixture("hom_not_sg"))
    return [
        (Letter("x", 1), Letter(name="x", bit=1), "Letter(name='x', bit=1)", ("x", 1)),
        (target, FiniteHomMagma(labels=list("xyz"), mul=[list(r) for r in _MUL], alpha=[1, 0, 2]),
         _MAGMA_TEXT, (("x", "y", "z"), _MUL, (1, 0, 2))),
        (report,
         LawReport(True, False, True, False, assoc_witness=("x", "x", "x"), invol_witness="x"),
         "LawReport(hom_associative=True, associative=False, multiplicative=True, "
         "involutive_alpha=False, hom_witness=None, assoc_witness=('x', 'x', 'x'), "
         "mult_witness=None, invol_witness='x')",
         (True, False, True, False, None, ("x", "x", "x"), None, "x")),
        (Census(2, 64, {(True,) * 4: 3}),
         Census(order=2, total_candidates=64, counts={(True,) * 4: 3}, up_to_iso=False),
         "Census(order=2, total_candidates=64, counts={(True, True, True, True): 3}, "
         "up_to_iso=False)",
         (2, 64, {(True,) * 4: 3}, False)),
        (GeneratorAssignment(target, {"x": 0, "y": 2}),
         GeneratorAssignment(mapping={"x": 0, "y": 2}, target=fixture("involutive")),
         "GeneratorAssignment(target=%s, mapping={'x': 0, 'y': 2})" % _MAGMA_TEXT,
         (target, {"x": 0, "y": 2})),
    ]


RECORDS = _records()
IDS = [type(r[0]).__name__ for r in RECORDS]


@pytest.mark.parametrize("record, twin, text, values", RECORDS, ids=IDS)
def test_repr_is_the_field_text(record, twin, text, values):
    assert repr(record) == repr(twin) == text


@pytest.mark.parametrize("record, twin, text, values", RECORDS, ids=IDS)
def test_equality_and_hash_follow_the_fields(record, twin, text, values):
    assert record == twin and not record != twin
    assert tuple(getattr(record, f) for f in type(record).__match_args__) == values
    if type(record) in (Census, GeneratorAssignment):  # a dict field
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) == hash(values)
    for other in [values, Letter("y"), fixture("hom_not_sg"), object()]:
        assert record != other and not record == other
        assert record.__eq__(other) is NotImplemented or record.__eq__(other) is False


@pytest.mark.parametrize("record, twin, text, values", RECORDS, ids=IDS)
def test_records_are_immutable(record, twin, text, values):
    for name in type(record).__match_args__ + ("other",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == twin and repr(record) == text


@pytest.mark.parametrize("record, twin, text, values", RECORDS, ids=IDS)
def test_pickle_and_deepcopy_round_trip(record, twin, text, values):
    for made in [pickle.loads(pickle.dumps(record, protocol)) for protocol in (0, 2, 5)] + [
        copy.deepcopy(record),
        copy.copy(record),
    ]:
        assert type(made) is type(record) and made == record and repr(made) == text
        with pytest.raises(AttributeError):
            setattr(made, type(record).__match_args__[0], None)


def test_match_args_are_the_fields_in_order():
    assert Letter.__match_args__ == ("name", "bit")
    assert FiniteHomMagma.__match_args__ == ("labels", "mul", "alpha")
    assert LawReport.__match_args__ == (
        "hom_associative", "associative", "multiplicative", "involutive_alpha",
        "hom_witness", "assoc_witness", "mult_witness", "invol_witness",
    )
    assert Census.__match_args__ == ("order", "total_candidates", "counts", "up_to_iso")
    assert GeneratorAssignment.__match_args__ == ("target", "mapping")
    match Letter("x", 1):
        case Letter(name, 1):
            assert name == "x"
        case _:
            pytest.fail("Letter('x', 1) did not match")


def test_construction_takes_positions_keywords_and_defaults():
    assert Letter("x") == Letter("x", 0) == Letter(name="x") == Letter(bit=0, name="x")
    lawful = LawReport(True, True, True, True)
    assert lawful.hom_witness is lawful.assoc_witness is lawful.mult_witness is None
    assert lawful.invol_witness is None
    assert Census(1, 1, {}).up_to_iso is False and Census(1, 1, {}, True).up_to_iso is True
    m = FiniteHomMagma("xy", [[0, 1], [1, 0]], [0, 1])
    assert (m.labels, m.mul, m.alpha) == (("x", "y"), ((0, 1), (1, 0)), (0, 1))
    mapping = {"x": 0}
    assign = GeneratorAssignment(fixture("involutive"), mapping)
    mapping["y"] = 1
    assert assign.mapping == {"x": 0}  # a copy, not the caller's dict
    for make in [
        lambda: Letter(),
        lambda: Letter("x", 0, 1),
        lambda: Letter("x", colour=0),
        lambda: FiniteHomMagma("x", ((0,),)),
        lambda: LawReport(True, True, True),
        lambda: Census(1, 1),
        lambda: GeneratorAssignment(fixture("involutive")),
    ]:
        with pytest.raises(TypeError):
            make()


def test_importing_the_package_and_the_command_loads_no_dataclasses():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys\n"
        "sys.path.insert(0, %r)\n"
        "before = set(sys.modules)\n"
        "import invhom, invhom.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n" % src
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
