"""The benchmark's workloads: seeded inputs, the ops that drive the program,
the oracles that judge each output, and the layer-by-layer replay of each
op that the traced run uses.

Every op is one call into the package, run back to back by a single
client.  The oracles live in ``reference.py`` and in the stored data, and
share no code with the package.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from invhom import cli
from invhom import expressions as ex
from invhom.algebra import AlgebraElement, add, alpha_alg, diamond_alg, scale
from invhom.census import canonical_form, census, iter_matching
from invhom.finite import FiniteHomMagma, classify, structure_from_dict
from invhom.universal import (
    GeneratorAssignment,
    extend,
    verify_morphism,
    verify_uniqueness,
)
from invhom.words import alpha_word, diamond, iter_words, parse_word, render_word

import reference as ref

DATA = Path(__file__).resolve().parent / "data"
NAMES = ("x", "y", "z", "w", "g1", "h_2")

# Program-side preparation, run both in the benchmark process and, timed,
# in fresh processes for setup_s.  ``docs`` holds the parsed corpus files.
PREP_HEAD = "import invhom\nimport invhom.cli\n"
MODELS_PREP = """
targets = [invhom.structure_from_dict(d) for d in docs]
assign3 = [invhom.GeneratorAssignment(t, {"x": 0, "y": 1, "z": t.order - 1}) for t in targets]
assign2 = [invhom.GeneratorAssignment(t, {"x": 0, "y": t.order - 1}) for t in targets]
"""


class Op:
    """One operation of a workload.

    ``run()`` calls the program and returns its output; ``check(output)``
    says whether that output is right.  ``work`` is the op's share of the
    workload's work count; ``name``, ``n`` and ``key`` label its span in a
    traced run, and ``replay(tracer, span_id, op_id)`` repeats its calls
    into the lower layers under that span.
    """

    __slots__ = ("name", "run", "check", "work", "n", "key", "replay")

    def __init__(self, name, run, check, work=0, n=1, key="", replay=None):
        self.name = name
        self.run = run
        self.check = check
        self.work = work
        self.n = n
        self.key = key
        self.replay = replay or (lambda tracer, sid, op: None)


class Workload:
    """A named batch of ops, built from a seed.

    ``prep`` is the program-side preparation (Python source) that runs
    before the first op; ``ops_from(namespace)`` binds the ops to what it
    prepared.
    """

    def __init__(self, name, ops_from, prep="", files=(), per_op_names=None):
        self.name = name
        self.prep = PREP_HEAD + prep
        self.files = [str(p) for p in files]
        self.ops_from = ops_from
        self.per_op_names = per_op_names or {}

    def prepare(self):
        ns = {"docs": [json.loads(Path(p).read_text()) for p in self.files]}
        exec(self.prep, ns)
        return self.ops_from(ns)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def size_key(*words, short=12, long=128):
    size = max(len(w) for w in words)
    return "short" if size <= short else "long" if size >= long else ""


# ---------------------------------------------------------------- expressions

# Inputs come from two streams.  ``shape`` is the same for every seed and
# picks sizes, nesting and the op mix; ``rng`` is seeded and picks the
# content: letters, bits, coefficients and images.  So a seed changes the
# inputs but not the load.

def rand_word(rng, shape, lo, hi, names=NAMES):
    return tuple(
        (rng.choice(names), rng.randint(0, 1)) for _ in range(shape.randint(lo, hi))
    )


def rand_comb(rng, shape, terms, maxlen):
    comb = {}
    while len(comb) < terms:
        c = Fraction(rng.randint(1, 5), rng.choice((1, 1, 1, 2, 3, 4)))
        comb[rand_word(rng, shape, 1, maxlen)] = c if rng.random() < 0.7 else -c
    return ("c", comb)


def maybe_alpha(shape, node, p=0.25):
    return ("A", node) if shape.random() < p else node


def product(shape, factors):
    """Left- or right-nested product of the factors."""
    if len(factors) == 1:
        return factors[0]
    if shape.random() < 0.5:
        return ("*", product(shape, factors[:-1]), factors[-1])
    return ("*", factors[0], product(shape, factors[1:]))


def comb_text(comb):
    parts = []
    for w, c in comb.items():
        mag = abs(c)
        body = ref.word_text(w) if mag == 1 else "%s . %s" % (mag, ref.word_text(w))
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def render(node):
    """Expression text for a tree of ("w", word), ("c", combination),
    ("A", x), and ("*" | "+" | "-", left, right) nodes."""
    kind = node[0]
    if kind == "w":
        return ref.word_text(node[1])
    if kind == "c":
        return comb_text(node[1])
    if kind == "A":
        return "A(%s)" % render(node[1])
    left, right = node[1], node[2]
    if kind == "*":
        lhs = render(left) if left[0] in ("w", "A", "*") else "(%s)" % render(left)
        rhs = render(right) if right[0] in ("w", "A") else "(%s)" % render(right)
        return "%s * %s" % (lhs, rhs)
    rhs = render(right) if right[0] in ("w", "A", "*") else "(%s)" % render(right)
    return "%s %s %s" % (render(left), kind, rhs)


def ref_value(node, pairs):
    """Reference value in the span; ``pairs[0]`` counts term pairs."""
    kind = node[0]
    if kind == "w":
        return {node[1]: Fraction(1)}
    if kind == "c":
        return dict(node[1])
    if kind == "A":
        return {ref.flip(w): c for w, c in ref_value(node[1], pairs).items()}
    a = ref_value(node[1], pairs)
    b = ref_value(node[2], pairs)
    if kind == "*":
        pairs[0] += len(a) * len(b)
        return ref.comb_product(a, b)
    acc = dict(a)
    sign = 1 if kind == "+" else -1
    for w, c in b.items():
        ref.add_into(acc, w, sign * c)
    return acc


def ref_word(node, pairs):
    kind = node[0]
    if kind == "w":
        return node[1]
    if kind == "A":
        return ref.flip(ref_word(node[1], pairs))
    pairs[0] += 1
    return ref.diamond(ref_word(node[1], pairs), ref_word(node[2], pairs))


def one_line(rc, out, err):
    return rc == 0 and not err and out.endswith("\n") and out.count("\n") == 1


def check_word_output(expected, output):
    rc, out, err = output
    return one_line(rc, out, err) and ref.parse_word_text(out) == expected


def check_comb_output(expected, output):
    rc, out, err = output
    if not one_line(rc, out, err):
        return False
    comb = ref.parse_combination(out.strip())
    return comb == expected and ref.term_order_ok(comb)


# ---------------------------------------------------------------- replay

def replay_word(tr, parent, op, node):
    """Repeat word_value's calls into the words layer, one span each."""
    if isinstance(node, ex.WordLit):
        return node.word
    if isinstance(node, ex.Alpha):
        w = replay_word(tr, parent, op, node.expr)
        return tr.call("words.alpha_word", parent, op, alpha_word, w, n=len(w))[1]
    u = replay_word(tr, parent, op, node.left)
    v = replay_word(tr, parent, op, node.right)
    return tr.call("words.diamond", parent, op, diamond, u, v, key=size_key(u, v))[1]


def replay_algebra(tr, parent, op, node):
    """Repeat algebra_value's calls into the algebra layer, one span each,
    with the words-layer calls of each algebra call replayed beneath it."""
    if isinstance(node, ex.WordLit):
        return tr.call("algebra.from_word", parent, op, AlgebraElement.from_word, node.word)[1]
    if isinstance(node, (ex.Neg, ex.Scaled, ex.Alpha)):
        a = replay_algebra(tr, parent, op, node.expr)
        if isinstance(node, ex.Alpha):
            sid, out = tr.call("algebra.alpha_alg", parent, op, alpha_alg, a, n=len(a.terms))
            for w in a.terms:
                tr.call("words.alpha_word", sid, op, alpha_word, w, n=len(w))
            return out
        c = -1 if isinstance(node, ex.Neg) else node.coeff
        return tr.call("algebra.scale", parent, op, scale, c, a, n=len(a.terms))[1]
    a = replay_algebra(tr, parent, op, node.left)
    b = replay_algebra(tr, parent, op, node.right)
    if isinstance(node, ex.Diamond):
        pairs = len(a.terms) * len(b.terms)
        sid, out = tr.call("algebra.diamond_alg", parent, op, diamond_alg, a, b, n=pairs)
        tr.count("algebra.term_pairs", pairs)
        tr.count("algebra.output_terms", len(out.terms))
        for u in a.terms:
            for v in b.terms:
                tr.call("words.diamond", sid, op, diamond, u, v, key=size_key(u, v))
        return out
    if isinstance(node, ex.Sub):
        b = tr.call("algebra.scale", parent, op, scale, -1, b, n=len(b.terms))[1]
    n = len(a.terms) + len(b.terms)
    return tr.call("algebra.add", parent, op, add, a, b, n=n)[1]


def replay_expression(text, mode, tr, sid, op):
    """parse, evaluate (with the lower layers replayed), then render."""
    node = tr.call("expressions.parse_expression", sid, op, ex.parse_expression, text, n=len(text))[1]
    if mode == "word":
        esid, value = tr.call("expressions.eval", sid, op, ex.word_value, node)
        replay_word(tr, esid, op, node)
        tr.call("words.render_word", sid, op, render_word, value, n=len(value))
    else:
        esid, value = tr.call("expressions.eval", sid, op, ex.algebra_value, node)
        replay_algebra(tr, esid, op, node)
        tr.call("algebra.render", sid, op, str, value, n=max(1, len(value.terms)))


# ---------------------------------------------------------------- span

def span_workload(seed, tiny=False):
    """``invhom prod`` and ``invhom expand`` commands through cli.main.

    Most are small: 2-3 factors, words of at most 12 letters, at most 10
    terms.  A tail multiplies or adds 30-100-term combinations, and a few
    products have a factor of 128-512 letters.
    """
    rng, shape = random.Random(seed), random.Random(0)
    n_small, n_tail, n_long = (30, 3, 2) if tiny else (960, 24, 12)
    trees = []
    for _ in range(n_small):
        r = shape.random()
        if r < 0.45:
            k = shape.choice((2, 3))
            factors = [maybe_alpha(shape, ("w", rand_word(rng, shape, 1, 12))) for _ in range(k)]
            trees.append(product(shape, factors))
        elif r < 0.9:
            k = shape.choice((2, 2, 3))
            hi = 10 if k == 2 else 4
            factors = [maybe_alpha(shape, rand_comb(rng, shape, shape.randint(1, hi), 6)) for _ in range(k)]
            trees.append(product(shape, factors))
        else:
            x, y, z = (rand_comb(rng, shape, shape.randint(1, 3), 4) for _ in range(3))
            lhs = ("*", ("A", x), ("*", y, z))
            rhs = ("*", ("*", x, y), ("A", z))
            trees.append(("-", lhs, rhs))
    for i in range(n_tail):
        big = 30 + (70 * i) // max(1, n_tail - 1)
        if i % 3 == 0:
            x, y, z = (rand_comb(rng, shape, big, 8) for _ in range(3))
            trees.append(("-", ("+", x, y), z))
        else:
            trees.append(("*", rand_comb(rng, shape, big, 8), rand_comb(rng, shape, 2 + i % 5, 8)))
    for i in range(n_long):
        length = 128 + (384 * i) // max(1, n_long - 1)
        long_w = ("w", rand_word(rng, shape, length, length))
        short_w = ("w", rand_word(rng, shape, 1, 12))
        trees.append(("*", long_w, short_w) if i % 2 == 0 else ("*", short_w, long_w))
    shape.shuffle(trees)

    ops = []
    for tree in trees:
        text = render(tree)
        pairs = [0]
        if has_comb(tree):
            expected = ref_value(tree, pairs)
            # "--": a combination can begin with a minus sign, and argparse
            # reads a leading "-h_2 ..." as the -h flag.
            mode, argv, check = "algebra", ["expand", "--", text], check_comb_output
        else:
            expected = ref_word(tree, pairs)
            mode, argv, check = "word", ["prod", text], check_word_output
        ops.append(
            Op(
                "cli.main",
                functools.partial(run_cli, argv),
                functools.partial(check, expected),
                work=pairs[0],
                replay=functools.partial(replay_expression, text, mode),
            )
        )
    return Workload("span", lambda ns: ops)


def has_comb(node):
    if node[0] in ("w", "c"):
        return node[0] == "c"
    return any(has_comb(child) for child in node[1:])


# ---------------------------------------------------------------- census

LAW_ORDER = list(itertools.product((True, False), repeat=4))


def check_census(golden, up_to_iso, output):
    rc, out, err = output
    lines = out.splitlines()
    if rc != 0 or err or len(lines) != 18:
        return False
    head = "order %d census: %d candidate%s" % (
        golden["order"], golden["total"], "" if golden["total"] == 1 else "s"
    )
    counts = golden["iso" if up_to_iso else "raw"]
    if up_to_iso:
        head += ", %d isomorphism classes" % sum(counts.values())
    if lines[0] != head or lines[1].split() != ["hom", "assoc", "mult", "invol", "count"]:
        return False
    for quad, line in zip(LAW_ORDER, lines[2:]):
        cells = line.split()
        key = "".join("1" if q else "0" for q in quad)
        if cells[:4] != ["yes" if q else "no" for q in quad] or cells[4:] != [str(counts[key])]:
            return False
    return True


def check_stream(expected, output):
    rc, out, err = output
    lines = out.splitlines()
    if rc != 0 or err or lines != expected:
        return False
    for line in lines:
        doc = json.loads(line)
        pos = {lab: i for i, lab in enumerate(doc["labels"])}
        mul = [[pos[v] for v in row] for row in doc["mul"]]
        if not ref.lawful(mul, [pos[v] for v in doc["alpha"]]):
            return False
    return True


def stream_visited(line):
    """Candidates the scan visits up to and including this table: product
    tables run row-major, involutive alphas innermost."""
    doc = json.loads(line)
    n = len(doc["labels"])
    pos = {lab: i for i, lab in enumerate(doc["labels"])}
    mul_rank = 0
    for row in doc["mul"]:
        row_rank = 0
        for v in row:
            row_rank = row_rank * n + pos[v]
        mul_rank = mul_rank * n ** n + row_rank
    alphas = [al for al in itertools.product(range(n), repeat=n) if ref.first_invol_failure(al) is None]
    alpha = tuple(pos[v] for v in doc["alpha"])
    return mul_rank * len(alphas) + alphas.index(alpha) + 1


def random_table(rng, n):
    mul = tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n))
    return mul, tuple(rng.randrange(n) for _ in range(n))


def census_workload(seed, tiny=False):
    """The raw census, the census up to isomorphism, and a lawful stream.

    The commands are fixed; the seed only picks the candidates that the
    traced run feeds to canonical_form and classify.  A batch runs the raw
    census four times, the stream twice and the up-to-iso census once.
    """
    golden = json.loads((DATA / "census_golden.json").read_text())
    order, stream_order, limit = (2, 4, 10) if tiny else (3, 4, 80)
    g = dict(golden["census"][str(order)], order=order)
    stream = golden["stream"][str(stream_order)][:limit]
    rng = random.Random(seed)
    sample = [random_table(rng, order) for _ in range(300 if tiny else 3000)]
    argv_census = ["enum", "--order", str(order)]
    argv_stream = ["enum", "--order", str(stream_order)]
    argv_stream += ["--filter", "hom", "--filter", "mult", "--filter", "inv", "--limit", str(limit)]
    key = "order%d" % order
    labels = ("a", "b", "c", "d")[:order]

    def replay_census(up_to_iso, tr, sid, op):
        csid, _ = tr.call("census.census", sid, op, census, order, up_to_iso, n=1, key=key + ("_iso" if up_to_iso else ""))
        if up_to_iso:
            for mul, al in sample:
                tr.call("census.canonical_form", csid, op, canonical_form, mul, al, key=key)
        else:
            for mul, al in sample[:300]:
                m = FiniteHomMagma(labels, mul, al)
                tr.call("finite.classify", csid, op, classify, m, key=key)

    def replay_stream(tr, sid, op):
        def scan():
            laws = dict(hom_associative=True, multiplicative=True, involutive_alpha=True)
            return list(itertools.islice(iter_matching(stream_order, **laws), limit))

        skey = "order%d" % stream_order
        ssid, tables = tr.call("census.iter_matching", sid, op, scan, n=limit, key=skey)
        for m in tables:
            tr.call("finite.FiniteHomMagma", ssid, op, FiniteHomMagma, m.labels, m.mul, m.alpha)
            tr.call("finite.classify", ssid, op, classify, m, key=skey)
            tr.call("census.canonical_form", ssid, op, canonical_form, m.mul, m.alpha, key=skey)

    raw = Op(
        "cli.main",
        functools.partial(run_cli, argv_census),
        functools.partial(check_census, g, False),
        work=g["total"],
        replay=functools.partial(replay_census, False),
    )
    iso = Op(
        "cli.main",
        functools.partial(run_cli, argv_census + ["--up-to-iso"]),
        functools.partial(check_census, g, True),
        work=g["total"],
        replay=functools.partial(replay_census, True),
    )
    stream_op = Op(
        "cli.main",
        functools.partial(run_cli, argv_stream),
        functools.partial(check_stream, stream),
        work=stream_visited(stream[-1]),
        replay=replay_stream,
    )
    # With four raw censuses per batch, op_p50_ms over three batches is the
    # fifth-fastest of twelve raw-census times: a one-second command that
    # one slow second would move if it ran only a few times.
    ops = [raw, stream_op, raw, iso, raw, stream_op, raw]
    label = {raw: "census.order3_s", stream_op: "census.order4_stream_s", iso: "census.order3_iso_s"}
    return Workload("census", lambda ns: ops, per_op_names={i: label[op] for i, op in enumerate(ops)})


# ---------------------------------------------------------------- models

def models_workload(seed, tiny=False):
    """Finite targets from the stored corpus: ``invhom check`` and
    ``invhom eval`` on the files, assignments, the two verifiers, and
    ``extend`` on seeded words of 1-64, 128-800 and 1,500-4,096 letters.
    Word lengths in the two long groups are spread evenly."""
    files = sorted((DATA / "models").glob("*.json"))
    docs = [json.loads(p.read_text()) for p in files]
    tables = []
    for doc in docs:
        pos = {lab: i for i, lab in enumerate(doc["labels"])}
        mul = tuple(tuple(pos[v] for v in row) for row in doc["mul"])
        tables.append((doc["labels"], mul, tuple(pos[v] for v in doc["alpha"])))
    counts = dict(check=150, eval=150, assign=100, morph=40, unique=10, short=500, medium=42, long=8)
    if tiny:
        counts = dict(check=4, eval=4, assign=3, morph=2, unique=1, short=10, medium=1, long=1)
    gens = ("x", "y", "z")

    def ops_from(ns):
        rng, shape = random.Random(seed), random.Random(0)
        plan = [(kind, i, k, shape.randrange(len(docs))) for kind, k in counts.items() for i in range(k)]
        shape.shuffle(plan)
        ops = []
        for kind, i, k, t in plan:
            labels, mul, alpha = tables[t]
            path = str(files[t])
            if kind == "check":
                expected = "\n".join(ref.law_report_lines(labels, mul, alpha)) + "\n"
                ops.append(
                    Op(
                        "cli.main",
                        functools.partial(run_cli, ["check", path]),
                        functools.partial(lambda e, o: o == (0, e, ""), expected),
                        replay=functools.partial(replay_check, docs[t]),
                    )
                )
            elif kind == "eval":
                factors = [maybe_alpha(shape, ("w", rand_word(rng, shape, 1, 6, gens))) for _ in range(shape.choice((2, 3)))]
                tree = product(shape, factors)
                text = render(tree)
                images = {g: rng.randrange(len(labels)) for g in gens}
                argv = ["eval", text, "--target", path]
                for g in gens:
                    argv += ["--map", "%s=%s" % (g, labels[images[g]])]
                value = ref.fold(mul, alpha, images, ref_word(tree, [0]))
                ops.append(
                    Op(
                        "cli.main",
                        functools.partial(run_cli, argv),
                        functools.partial(lambda e, o: o == (0, e, ""), labels[value] + "\n"),
                        replay=functools.partial(replay_eval, docs[t], text, {g: labels[images[g]] for g in gens}),
                    )
                )
            elif kind == "assign":
                names = rng.sample(("x", "y", "z", "g1"), shape.choice((2, 3)))
                mapping = {g: rng.randrange(len(labels)) for g in names}
                target = ns["targets"][t]
                ops.append(
                    Op(
                        "universal.GeneratorAssignment",
                        functools.partial(GeneratorAssignment, target, mapping),
                        functools.partial(lambda m, o: isinstance(o, GeneratorAssignment) and o.mapping == m, mapping),
                    )
                )
            elif kind == "morph":
                samples = 20
                call = functools.partial(
                    verify_morphism, ns["assign3"][t], max_len=4 + (8 * i) // max(1, k - 1), samples=samples, seed=rng.randrange(10 ** 6)
                )
                ops.append(Op("universal.verify_morphism", call, lambda o: o is None, n=samples))
            elif kind == "unique":
                max_len = 3 + (2 * i) // max(1, k - 1)
                assign = ns["assign2"][t]
                words = sum(4 ** m for m in range(1, max_len + 1))
                ops.append(
                    Op(
                        "universal.verify_uniqueness",
                        functools.partial(verify_uniqueness, assign, max_len),
                        lambda o: o is None,
                        n=words,
                        replay=functools.partial(replay_unique, sorted(assign.mapping), max_len, words),
                    )
                )
            else:
                lo, hi = {"short": (1, 64), "medium": (128, 800), "long": (1500, 4096)}[kind]
                length = shape.randint(lo, hi) if kind == "short" else lo + ((hi - lo) * i) // max(1, k - 1)
                word = rand_word(rng, shape, length, length, gens)
                text = ref.word_text(word)
                assign = ns["assign3"][t]
                images = dict(assign.mapping)
                ops.append(
                    Op(
                        "op.extend",
                        functools.partial(extend_text, assign, text),
                        functools.partial(lambda e, o: o == e, ref.fold(mul, alpha, images, word)),
                        work=1,
                        replay=functools.partial(replay_extend, assign, text, length),
                    )
                )
        return ops

    return Workload("models", ops_from, prep=MODELS_PREP, files=files)


def extend_text(assign, text):
    return extend(assign, parse_word(text))


def traced_extend(tr, parent, op, assign, w):
    tr.count("universal.extend.calls")
    try:
        tr.call("universal.extend", parent, op, extend, assign, w, n=len(w), key=size_key(w, short=64))
    except Exception:  # today RecursionError on long words; counted, not fatal
        tr.count("universal.extend.failed")


def replay_extend(assign, text, length, tr, sid, op):
    w = tr.call("words.parse_word", sid, op, parse_word, text, n=length)[1]
    traced_extend(tr, sid, op, assign, w)


def replay_check(doc, tr, sid, op):
    m = tr.call("finite.structure_from_dict", sid, op, structure_from_dict, doc)[1]
    report = tr.call("finite.classify", sid, op, classify, m, key="order%d" % m.order)[1]
    tr.call("finite.as_text", sid, op, report.as_text)


def replay_eval(doc, text, labels, tr, sid, op):
    m = tr.call("finite.structure_from_dict", sid, op, structure_from_dict, doc)[1]
    tr.call("finite.classify", sid, op, classify, m, key="order%d" % m.order)
    assign = tr.call("universal.GeneratorAssignment", sid, op, GeneratorAssignment.from_labels, m, labels)[1]
    node = tr.call("expressions.parse_expression", sid, op, ex.parse_expression, text, n=len(text))[1]
    esid, w = tr.call("expressions.eval", sid, op, ex.word_value, node)
    replay_word(tr, esid, op, node)
    traced_extend(tr, sid, op, assign, w)


def replay_unique(names, max_len, words, tr, sid, op):
    tr.call("words.iter_words", sid, op, lambda: list(iter_words(names, max_len)), n=words)


WORKLOADS = {"span": span_workload, "census": census_workload, "models": models_workload}
