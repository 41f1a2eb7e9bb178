import json

import pytest

from invhom.cli import main
from invhom.finite import FiniteHomMagma, fixture, structure_to_dict

HOM_NOT_SG_REPORT = (
    "hom-associative  yes\n"
    "associative      no  witness: x x x\n"
    "multiplicative   yes\n"
    "involutive alpha no  witness: x\n"
)

INVOLUTIVE_REPORT = (
    "hom-associative  yes\n"
    "associative      no  witness: x x x\n"
    "multiplicative   yes\n"
    "involutive alpha yes\n"
)


@pytest.fixture
def run(capsys):
    def go(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return go


def write_structure(tmp_path, m, name="structure.json"):
    path = tmp_path / name
    path.write_text(json.dumps(structure_to_dict(m)), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------- expressions

def test_prod_word_mode(run):
    assert run("prod", "x * y * z") == (0, "[x] y [z]\n", "")
    assert run("prod", "x * (y * z)") == (0, "x y z\n", "")
    assert run("prod", "A(A(x))") == (0, "x\n", "")


def test_prod_algebra_mode(run):
    code, out, err = run("prod", "x * y + 3/2 . z")
    assert (code, err) == (0, "")
    assert out == "3/2 . z + x y\n"


def test_prod_echo(run):
    code, out, _ = run("prod", "--echo", "x * y * z")
    assert code == 0
    assert out == "((x * y) * z)\n[x] y [z]\n"


def test_prod_generate(run):
    code, out, _ = run("prod", "--generate", "[x] y")
    assert code == 0
    assert out == "A(x) * y\n"
    code, _, err = run("prod", "--generate", "x + y")
    assert code == 2
    assert "plain word" in err


def test_alpha_command(run):
    assert run("alpha", "x [y] z") == (0, "[x] y [z]\n", "")
    code, out, _ = run("alpha", "x - 2 . [y]")
    assert code == 0
    assert out == "[x] - 2 . y\n"


def test_expand_command(run):
    assert run("expand", "x * y") == (0, "x y\n", "")
    code, out, _ = run("expand", "1/2 . (x + y) - 1/2 . y")
    assert code == 0
    assert out == "1/2 . x\n"


def test_expression_with_a_leading_minus_follows_double_dash(run):
    assert run("expand", "--", "-x") == (0, "-x\n", "")


def test_parse_errors_exit_2(run):
    code, _, err = run("prod", "2 x")
    assert code == 2
    assert "line 1, column 3" in err
    code, _, err = run("prod", "")
    assert code == 2
    assert "empty expression" in err
    code, _, err = run("eval", "x + y", "--target", "nowhere.json")
    assert code == 2


# ---------------------------------------------------------------- check

def test_check_fixture_reports(run, tmp_path):
    path = write_structure(tmp_path, fixture("hom_not_sg"))
    assert run("check", path) == (0, HOM_NOT_SG_REPORT, "")
    path = write_structure(tmp_path, fixture("involutive"))
    assert run("check", path) == (0, INVOLUTIVE_REPORT, "")


def test_check_exit_1_when_not_hom_associative(run, tmp_path):
    m = FiniteHomMagma(("a", "b"), ((0, 1), (0, 1)), (0, 0))
    code, out, _ = run("check", write_structure(tmp_path, m))
    assert code == 1
    assert out.startswith("hom-associative  no  witness: a a b\n")


def test_check_file_errors_exit_2(run, tmp_path):
    code, _, err = run("check", str(tmp_path / "missing.json"))
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"labels": ["a"],', encoding="utf-8")
    code, _, err = run("check", str(bad))
    assert code == 2
    assert "line 1" in err
    ragged = tmp_path / "ragged.json"
    ragged.write_text(
        '{"labels": ["a", "b"], "mul": [["a", "q"], ["a", "a"]], "alpha": ["a", "a"]}',
        encoding="utf-8",
    )
    code, _, err = run("check", str(ragged))
    assert code == 2
    assert "row 0, column 1" in err


# ---------------------------------------------------------------- eval

def test_eval_in_the_involutive_fixture(run, tmp_path):
    path = write_structure(tmp_path, fixture("involutive"))
    assert run("eval", "x * x", "--target", path, "--map", "x=x") == (0, "y\n", "")
    # alpha(x) = y in the target, so [x] evaluates to y
    assert run("eval", "[x]", "--target", path, "--map", "x=x") == (0, "y\n", "")
    code, out, _ = run(
        "eval", "x * y * x", "--target", path, "--map", "x=x", "--map", "y=z"
    )
    assert code == 0


def test_eval_requires_a_lawful_target(run, tmp_path):
    path = write_structure(tmp_path, fixture("hom_not_sg"))
    code, _, err = run("eval", "x", "--target", path, "--map", "x=x")
    assert code == 1
    assert err == "target is not involutive, witness: x\n"
    # the law failure wins over a malformed --map
    code, _, err = run("eval", "x", "--target", path, "--map", "x")
    assert code == 1
    assert err == "target is not involutive, witness: x\n"


def test_eval_usage_errors(run, tmp_path):
    path = write_structure(tmp_path, fixture("involutive"))
    code, _, err = run("eval", "x y", "--target", path, "--map", "x=x")
    assert code == 2
    assert "'y'" in err
    code, _, err = run("eval", "x", "--target", path, "--map", "x")
    assert code == 2
    assert "generator=label" in err
    code, _, err = run("eval", "x", "--target", path, "--map", "x=w")
    assert code == 2
    assert "unknown label" in err


# ---------------------------------------------------------------- enum

def test_enum_order_1_census(run):
    code, out, _ = run("enum", "--order", "1")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "order 1 census: 1 candidate"
    assert len(lines) == 18
    first_row = lines[2].split()
    assert first_row == ["yes", "yes", "yes", "yes", "1"]


def test_enum_order_2_census_counts(run):
    code, out, _ = run("enum", "--order", "2")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "order 2 census: 64 candidates"
    counts = [int(line.split()[-1]) for line in lines[2:]]
    assert sum(counts) == 64
    assert counts[0] == 8  # all four laws


def test_enum_stream_is_json_lines(run):
    code, out, _ = run(
        "enum", "--order", "2", "--filter", "hom", "--filter", "inv", "--limit", "3"
    )
    assert code == 0
    lines = out.splitlines()
    json_lines = [l for l in lines if l.startswith("{")]
    assert len(json_lines) == 3
    for line in json_lines:
        d = json.loads(line)
        assert set(d) == {"labels", "mul", "alpha"}


def test_enum_up_to_iso(run):
    code, out, _ = run("enum", "--order", "2", "--up-to-iso")
    assert code == 0
    head = out.splitlines()[0]
    assert head.startswith("order 2 census: 64 candidates, ")
    assert head.endswith("isomorphism classes")


def test_enum_order_4_needs_filter_and_limit(run):
    code, _, err = run("enum", "--order", "4")
    assert code == 2
    assert "--filter" in err and "--limit" in err
    code, out, _ = run("enum", "--order", "4", "--filter", "inv", "--limit", "2")
    assert code == 0
    assert len(out.splitlines()) == 2


def test_enum_bad_order(run):
    code, _, err = run("enum", "--order", "0")
    assert code == 2
    code, _, err = run("enum", "--order", "5")
    assert code == 2


# ---------------------------------------------------------------- adjoin-zero

def test_adjoin_zero_output(run, tmp_path):
    m = FiniteHomMagma(("o", "i"), ((0, 0), (0, 1)), (0, 1))
    code, out, _ = run("adjoin-zero", write_structure(tmp_path, m))
    assert code == 0
    d = json.loads(out)
    assert d["labels"] == ["o", "i"]
    assert d["alpha"] == ["o", "o"]


def test_adjoin_zero_rejects_non_semigroups(run, tmp_path):
    path = write_structure(tmp_path, fixture("involutive"))
    code, out, err = run("adjoin-zero", path)
    assert code == 1
    assert out == ""
    assert "(x, x, x)" in err


def test_adjoined_output_round_trips_through_check(run, tmp_path):
    m = FiniteHomMagma(("a", "b"), ((0, 0), (1, 1)), (0, 1))
    code, out, _ = run("adjoin-zero", write_structure(tmp_path, m))
    assert code == 0
    out_path = tmp_path / "adjoined.json"
    out_path.write_text(out, encoding="utf-8")
    code, report, _ = run("check", str(out_path))
    assert code == 0
    assert report.startswith("hom-associative  yes")


# ---------------------------------------------------------------- usage

def test_usage_errors(run):
    assert run("frobnicate")[0] == 2
    assert run()[0] == 2


def test_outputs_are_deterministic(run, tmp_path):
    path = write_structure(tmp_path, fixture("involutive"))
    first = run("check", path)
    second = run("check", path)
    assert first == second
