import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invhom import universal
from invhom.cli import main
from invhom.finite import FiniteHomMagma, fixture, structure_to_dict
from invhom.words import diamond_closed, parse_word

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
    for text, col in [("x é", 3), ("2² . x", 2)]:
        code, out, err = run("prod", text)
        assert (code, out) == (2, "")
        assert err.startswith("line 1, column %d: unexpected character" % col)


def test_deep_nesting_parses(run):
    for opener in ["(", "A("]:
        assert run("prod", opener * 1200 + "x" + ")" * 1200) == (0, "x\n", "")
    # the involution is applied an even number of times
    assert run("prod", "A(" * 100_000 + "x" + ")" * 100_000) == (0, "x\n", "")
    assert run("prod", "(" * 100_000 + "x * y" + ")" * 100_000) == (0, "x y\n", "")


def test_long_and_deep_expressions(run):
    long_word = " ".join("[x]" if i % 3 else "y" for i in range(1500))
    expected = diamond_closed(parse_word(long_word), parse_word("y"))
    assert run("prod", long_word + " * y") == (0, "%s\n" % expected, "")
    long_sum = " + ".join(["x"] * 3000)
    assert run("expand", long_sum) == (0, "3000 . x\n", "")
    code, out, err = run("prod", "--echo", long_sum)
    assert (code, err) == (0, "")
    assert out.endswith("\n3000 . x\n")
    zero_product = "(0 . x) * " + " * ".join(["x"] * 2999)
    assert run("expand", "--", zero_product) == (0, "0\n", "")


def test_long_sums_print_every_term_in_order(run):
    rng = random.Random(8000)
    terms = []
    for i in range(8000):
        atoms = ["x%d" % i] + (["[y]"] if i % 3 == 0 else [])
        terms.append(" ".join("[%s]" % a if i % 2 and a[0] == "x" else a for a in atoms))
    rng.shuffle(terms)

    def key(term):  # by length, then letter by letter: name, then bare before marked
        atoms = term.split()
        return len(atoms), [(a.strip("[]"), a.startswith("[")) for a in atoms]

    total = " + ".join(terms)
    assert run("expand", total) == (0, " + ".join(sorted(terms, key=key)) + "\n", "")
    assert run("expand", total + " - " + " - ".join(terms)) == (0, "0\n", "")
    assert run("expand", " - ".join(terms[:1] * 4000)) == (0, "-3998 . %s\n" % terms[0], "")


def test_printed_expressions_parse_back(run):
    long_sum = " + ".join("x" if i % 2 else "2 . [y]" for i in range(3000))
    code, out, _ = run("prod", "--echo", long_sum)
    assert code == 0
    echoed, value = out.splitlines()
    assert run("prod", echoed) == (0, "%s\n" % value, "")
    long_word = " ".join("[x]" if i % 3 else "y" for i in range(3000))
    code, out, _ = run("prod", "--generate", long_word)
    assert code == 0
    assert run("prod", out.rstrip("\n")) == (0, "%s\n" % long_word, "")


def test_numbers_past_the_int_digit_limit_exit_2(run):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit == 0:
        pytest.skip("this interpreter has no int digit limit")
    too_long = "integer longer than %d digits\n" % limit
    numerator = "1" * (limit + 1) + " . x"
    assert run("prod", numerator) == (2, "", "line 1, column 1: " + too_long)
    denominator = "x - 1/" + "7" * (limit + 1) + " . y"
    assert run("expand", "--", denominator) == (2, "", "line 1, column 7: " + too_long)
    # (10^k - 1)^2 has 2k digits, one or two past the limit
    nines = "9" * (limit // 2 + 1)
    product = "(%s . x) * (%s . y)" % (nines, nines)
    assert run("expand", product) == (
        2, "", "a coefficient has more than %d digits\n" % limit
    )
    at_limit = "9" * limit
    assert run("expand", at_limit + " . x") == (0, at_limit + " . x\n", "")
    assert run("expand", "1/%s . x" % at_limit) == (0, "1/%s . x\n" % at_limit, "")


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


HOSTILE_FILES = {
    "not_utf8.json": (b"\xff", "can't decode byte 0xff"),
    "deep.json": (b"[" * 100_000, "JSON nested too deeply"),
    "long_int.json": (b'{"labels": [' + b"7" * 5000 + b"]}", "integer string"),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_FILES))
@pytest.mark.parametrize(
    "argv",
    [["check"], ["eval", "x", "--map", "x=a", "--target"], ["adjoin-zero"]],
    ids=["check", "eval", "adjoin-zero"],
)
def test_hostile_structure_files_exit_2(run, tmp_path, argv, name):
    content, reason = HOSTILE_FILES[name]
    path = tmp_path / name
    path.write_bytes(content)
    code, out, err = run(*argv, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("%s: " % path)
    assert reason in err


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
    for bad_map in ["x", "x=w", "2=x"]:
        code, _, err = run("eval", "x", "--target", path, "--map", bad_map)
        assert code == 1
        assert err == "target is not involutive, witness: x\n"


def test_eval_checks_the_target_laws_once(run, tmp_path, monkeypatch):
    calls = []

    def counted(law, check):
        return lambda m: calls.append(law) or check(m)

    laws = tuple(
        (law, counted(law, check), msg) for law, check, msg in universal._TARGET_LAWS
    )
    monkeypatch.setattr(universal, "_TARGET_LAWS", laws)
    path = write_structure(tmp_path, fixture("involutive"))
    assert run("eval", "x * x", "--target", path, "--map", "x=x") == (0, "y\n", "")
    assert calls == ["hom-associative", "multiplicative", "involutive"]


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


def test_enum_limit_needs_a_filter(run):
    refused = (2, "", "--limit bounds the streamed tables; give --filter too\n")
    for order in ("1", "2", "3"):
        assert run("enum", "--order", order, "--limit", "0") == refused
        assert run("enum", "--order", order, "--limit", "5", "--up-to-iso") == refused
    assert run("enum", "--order", "4", "--limit", "0") == (
        2, "", "an order 4 scan is huge; give --filter and --limit\n"
    )
    code, out, _ = run("enum", "--order", "2", "--filter", "inv", "--limit", "0")
    assert code == 0 and out.startswith("order 2 census: 64 candidates\n")
    assert "{" not in out


def test_enum_order_4_lawful_stream_is_exhaustive(run):
    argv = ["enum", "--order", "4", "--filter", "hom", "--filter", "mult", "--filter", "inv"]
    code, out, err = run(*argv, "--limit", "5000")
    assert (code, err) == (0, "")
    lines = out.splitlines(keepends=True)
    assert len(lines) == 4428
    # one letter per label, so text order is scan order
    assert lines == sorted(set(lines))
    for limit in (0, 1, 80):
        assert run(*argv, "--limit", str(limit)) == (0, "".join(lines[:limit]), "")
    code, out, err = run(*argv, "--limit", "5000", "--up-to-iso")
    assert (code, err) == (0, "")
    classes = out.splitlines(keepends=True)
    assert len(classes) == 276
    assert set(classes) <= set(lines)
    assert run(*argv) == (2, "", "an order 4 scan is huge; give --filter and --limit\n")
    assert run(*argv, "--limit", "-1", "--up-to-iso") == (
        2, "", "--limit must not be negative\n"
    )


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


def test_closed_stdout_is_a_quiet_exit():
    root = Path(__file__).resolve().parent.parent
    cli = [sys.executable, "-m", "invhom.cli"]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        cli + ["enum", "--order", "4", "--filter", "inv", "--limit", "100000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline().startswith(b'{"labels":')
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert err == b""
    # a reader gone before the first write, with stdout buffered or not
    for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
        for command in (
            cli + ["prod", "x * y"],
            cli + ["--help"],
            [sys.executable, "tools/bench_pairs.py", "summary", "BENCH_17.json"],
        ):
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                done = subprocess.run(
                    command, stdout=write_end, stderr=subprocess.PIPE,
                    env={**env, **unbuffered}, cwd=root, timeout=60,
                )
            finally:
                os.close(write_end)
            assert (done.returncode, done.stderr) == (0, b"")


def test_bench_pairs_gives_a_verdict_on_a_claimed_gain():
    root = Path(__file__).resolve().parent.parent

    def verdict(bench, claim):
        command = [sys.executable, "tools/bench_pairs.py", "summary", bench, "--claim", claim]
        done = subprocess.run(command, capture_output=True, text=True, cwd=root, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        return done.stdout.splitlines()[-1]

    # 12 of 12 pairs, -41.7% against a parent spread of 0.090
    assert verdict("BENCH_17.json", "census:wall_s") == (
        "claim census:wall_s: met (wins 12/12, median -41.7%, parent IQR/median 0.090)"
    )
    assert verdict("BENCH_20.json", "census:wall_s").startswith("claim census:wall_s: met (")
    assert verdict("BENCH_24.json", "span:op_p99_ms").startswith("claim span:op_p99_ms: met (")
    # 2 of 10 pairs; 3 pairs are too few
    assert verdict("BENCH_19.json", "census:wall_s").startswith("claim census:wall_s: not met (")
    assert verdict("BENCH_8.json", "census:wall_s").startswith("claim census:wall_s: not met (")


def _summary(root, bench, *claim):
    command = [sys.executable, "tools/bench_pairs.py", "summary", str(bench), *claim]
    return subprocess.run(command, capture_output=True, text=True, cwd=root, timeout=60)


def test_bench_pairs_refuses_a_claim_on_an_unknown_workload_or_metric():
    root = Path(__file__).resolve().parent.parent
    for claim, unknown in (
        ("census:wall", "metric 'wall'"),
        ("census:cpu_s", "metric 'cpu_s'"),
        ("cenus:wall_s", "workload 'cenus'"),
    ):
        done = _summary(root, "BENCH_17.json", "--claim", claim)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.endswith("--claim names an unknown %s\n" % unknown)


def test_bench_pairs_refuses_a_claim_without_a_colon_and_a_file_without_runs(tmp_path):
    root = Path(__file__).resolve().parent.parent
    done = _summary(root, "BENCH_17.json", "--claim", "census")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.endswith("--claim takes WORKLOAD:METRIC\n")
    for content in ("{}", "[]", '{"runs": 3}'):
        bench = tmp_path / "BENCH_test.json"
        bench.write_text(content)
        done = _summary(root, bench)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.endswith("%s holds no list of runs\n" % bench)
    for content in (None, "runs"):
        bench = tmp_path / "BENCH_missing.json"
        if content is not None:
            bench.write_text(content)
        done = _summary(root, bench)
        assert done.returncode == 2 and done.stdout == ""
        assert ("cannot read %s: " % bench) in done.stderr


def test_bench_pairs_refuses_a_run_without_the_fields_it_reads(tmp_path):
    root = Path(__file__).resolve().parent.parent
    bench = tmp_path / "BENCH_test.json"
    run = {"workload": "span", "seed": 1, "trace": 0, "side": "parent", "result": None}
    everything = "trace, workload, seed, side, result"
    cases = [([{}], 0, everything), ([3], 0, everything)]
    for k, field in enumerate(run):
        cases.append(([run] * k + [{f: v for f, v in run.items() if f != field}], k, field))
    for runs, k, missing in cases:
        bench.write_text(json.dumps({"runs": runs}))
        done = _summary(root, bench)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.endswith("%s: runs entry %d has no %s\n" % (bench, k, missing))
        assert "Traceback" not in done.stderr


def test_bench_pairs_refuses_a_result_without_the_fields_it_reads(tmp_path):
    # a pair of seed 1 whose results lack failed, metrics or a metric's value
    root = Path(__file__).resolve().parent.parent
    bench = tmp_path / "BENCH_test.json"
    bounds = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    names = [spec["name"] for spec in bounds]
    full = {"failed": 0, "metrics": {name: {"value": 1.0} for name in names}}
    no_value = {"failed": 0, "metrics": {**full["metrics"], "wall_s": {"unit": "s"}}}
    cases = [
        ({"x": 1}, "failed"),
        ({"failed": 0}, "metrics.%s.value" % names[0]),
        (no_value, "metrics.wall_s.value"),
        ([1], "failed"),
    ]
    for result, missing in cases:
        for sides, k in (((result, result), 0), ((full, result), 1)):
            runs = [{"workload": "census", "seed": 1, "trace": 0, "side": side, "result": r}
                    for side, r in zip(("parent", "change"), sides)]
            bench.write_text(json.dumps({"runs": runs}))
            done = _summary(root, bench)
            assert done.returncode == 2 and done.stdout == ""
            tail = "%s: runs entry %d has no result.%s\n" % (bench, k, missing)
            assert done.stderr.endswith(tail)
            assert "Traceback" not in done.stderr


def test_bench_pairs_marks_a_metric_worse_than_its_bound(tmp_path):
    # three pairs: wall_s 30% worse than the parent, beyond its 0.25 bound;
    # peak_rss_mb 9% worse, inside its 0.1 bound; work_per_s 30% better
    root = Path(__file__).resolve().parent.parent
    bounds = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    change = {"wall_s": 1.3, "peak_rss_mb": 1.09, "work_per_s": 1.3}
    runs = []
    for seed in (1, 2, 3):
        for side in ("parent", "change"):
            metrics = {
                spec["name"]: {"value": (change.get(spec["name"], 1.0) if side == "change" else 1.0)
                               * (1 + seed / 1000)}
                for spec in bounds
            }
            result = {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}
            runs.append({"workload": "census", "seed": seed, "trace": 0, "side": side,
                         "place": 0, "returncode": 0, "result": result})
    bench = tmp_path / "BENCH_test.json"
    bench.write_text(json.dumps({"runs": runs}))
    done = _summary(root, bench)
    assert (done.returncode, done.stderr) == (0, "")
    marked = [line.split()[0] for line in done.stdout.splitlines() if "REGRESSION" in line]
    assert marked == ["wall_s"]
    assert "REGRESSION (worse than bound 0.25)" in done.stdout
    # a declared workload with no pairs in the file
    done = _summary(root, bench, "--claim", "span:wall_s")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[-1] == "claim span:wall_s: not met (no pairs)"


# Hypothesis reruns one test function many times, which the function-scoped
# capsys fixture behind `run` does not support, so this captures by hand.
def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(st.text(st.sampled_from(list("xyA_12/.*+-()[] \né²")), max_size=40))
@settings(max_examples=150, deadline=None)
def test_any_expression_text_exits_0_or_2_deterministically(text):
    for command in ("prod", "alpha", "expand"):
        code, out, err = _main([command, "--", text])
        assert code in (0, 2)
        assert "Traceback" not in err
        assert _main([command, "--", text])[1] == out


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.sampled_from(["a", "b", "", "\ud800"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["labels", "mul", "alpha"]), inner, max_size=3),
    max_leaves=12,
)


@st.composite
def _valid_structures(draw):
    n = draw(st.integers(1, 3))
    labels = [draw(st.sampled_from(["a", "\ud800"])), "b", "c"][:n]
    label = st.sampled_from(labels)
    row = st.lists(label, min_size=n, max_size=n)
    return {
        "labels": labels,
        "mul": draw(st.lists(row, min_size=n, max_size=n)),
        "alpha": draw(row),
    }


_STRUCTURES = (
    _valid_structures()
    | _JSON
    | st.tuples(
        _valid_structures(), st.sampled_from(["labels", "mul", "alpha"]), _JSON
    ).map(lambda t: {**t[0], t[1]: t[2]})
)


@given(
    _STRUCTURES,
    st.sampled_from(["x", "x * [y]", "A(y * x)", "x + y"]),
    st.lists(st.sampled_from(["x=a", "y=b", "x=c", "x", "=a", "2=a"]), max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_any_structure_file_exits_0_1_or_2(data, expr, maps):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "structure.json")
        Path(path).write_text(json.dumps(data), encoding="utf-8")
        eval_argv = ["eval", "--target", path, "--", expr]
        eval_argv[1:1] = [arg for item in maps for arg in ("--map", item)]
        for argv in (["check", path], eval_argv):
            code, out, err = _main(argv)
            assert code in (0, 1, 2)
            assert "Traceback" not in err
            out.encode("utf-8")  # what a real stdout must be able to write


@given(
    st.tuples(st.sampled_from([0, 1, 2, 5]), st.none() | st.integers(-1, 3))
    | st.tuples(st.just(4), st.sampled_from([None, -1, 0])),
    st.lists(st.sampled_from(["hom", "sg", "mult", "inv"]), max_size=3),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_any_enum_arguments_exit_0_or_2_deterministically(order_limit, filters, iso):
    order, limit = order_limit
    argv = ["enum", "--order", str(order)]
    argv += [arg for f in filters for arg in ("--filter", f)]
    argv += [] if limit is None else ["--limit", str(limit)]
    argv += ["--up-to-iso"] if iso else []
    code, out, err = _main(argv)
    assert code in (0, 2)
    assert "Traceback" not in err
    assert _main(argv)[1] == out


def test_outputs_are_deterministic(run, tmp_path):
    path = write_structure(tmp_path, fixture("involutive"))
    first = run("check", path)
    second = run("check", path)
    assert first == second
