"""Spans recorded from the benchmark's own code, and the per-layer metrics
computed from them.

A span is ``(id, parent, op, name, start, end, n, key)``: ``n`` counts the
work done in the span in the unit its metric uses, and ``key`` sorts spans
of one name into size classes.  Replayed spans name as parent the span whose
work they repeat, so a span's self time is its duration minus the
durations of the spans that name it as parent.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    """Spans and counters kept in memory and written out when the run ends."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()

    def call(self, name, parent, op, fn, *args, n=1, key=""):
        """Run ``fn(*args)`` inside a span; return ``(span id, result)``.
        The span is recorded even when the call raises."""
        sid = len(self.spans)
        self.spans.append(None)
        t0 = perf_counter()
        try:
            return sid, fn(*args)
        finally:
            self.spans[sid] = (sid, parent, op, name, t0, perf_counter(), n, key)

    def count(self, name, k=1):
        self.counts[name] += k

    def write(self, path, **meta):
        path.parent.mkdir(exist_ok=True)
        doc = dict(meta, fields=["id", "parent", "op", "name", "start", "end", "n", "key"])
        doc.update(counts=dict(self.counts), spans=self.spans)
        path.write_text(json.dumps(doc, separators=(",", ":")))


class LayerView:
    """Time per unit of work for each span name, whole or self."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.children = defaultdict(float)
        for s in tracer.spans:
            if s[1] is not None:
                self.children[s[1]] += s[5] - s[4]

    def per_unit(self, name, key=None, scale=1e6, self_time=False):
        """Summed duration (or self time) over summed ``n``, in seconds
        times ``scale``; 0.0 when this workload never makes the call."""
        time = units = 0
        for s in self.tracer.spans:
            if s[3] == name and (key is None or s[7] == key):
                time += s[5] - s[4] - (self.children[s[0]] if self_time else 0.0)
                units += s[6]
        return time * scale / units if units else 0.0

    def ratio(self, num, den):
        d = self.tracer.counts[den]
        return self.tracer.counts[num] / d if d else 0.0


def _per(name, key=None, scale=1e6, self_time=False):
    return lambda view: view.per_unit(name, key, scale, self_time)


# (metric, unit, better, how to compute it from the spans)
PER_LAYER = [
    ("words.diamond_us.short", "us/pair", "lower", _per("words.diamond", "short")),
    ("words.diamond_us.long", "us/pair", "lower", _per("words.diamond", "long")),
    ("words.alpha_word_us_per_letter", "us/letter", "lower", _per("words.alpha_word")),
    ("words.iter_words_us_per_word", "us/word", "lower", _per("words.iter_words")),
    ("words.parse_word_us_per_letter", "us/letter", "lower", _per("words.parse_word")),
    ("algebra.diamond_alg_us_per_pair", "us/pair", "lower", _per("algebra.diamond_alg")),
    ("algebra.diamond_alg_self_us_per_pair", "us/pair", "lower", _per("algebra.diamond_alg", self_time=True)),
    ("algebra.output_terms_per_pair", "ratio", "lower", lambda v: v.ratio("algebra.output_terms", "algebra.term_pairs")),
    ("algebra.render_us_per_term", "us/term", "lower", _per("algebra.render")),
    ("algebra.add_us_per_term", "us/term", "lower", _per("algebra.add")),
    ("expressions.parse_us_per_char", "us/char", "lower", _per("expressions.parse_expression")),
    ("expressions.eval_self_ms", "ms", "lower", _per("expressions.eval", scale=1e3, self_time=True)),
    ("cli.overhead_ms", "ms", "lower", _per("cli.main", scale=1e3, self_time=True)),
    ("finite.structure_from_dict_us", "us", "lower", _per("finite.structure_from_dict")),
    ("finite.classify_us.order3", "us", "lower", _per("finite.classify", "order3")),
    ("finite.classify_us.order4", "us", "lower", _per("finite.classify", "order4")),
    ("finite.construct_us", "us", "lower", _per("finite.FiniteHomMagma")),
    ("universal.assignment_us", "us", "lower", _per("universal.GeneratorAssignment")),
    ("universal.extend_us_per_letter.short", "us/letter", "lower", _per("universal.extend", "short")),
    ("universal.extend_us_per_letter.long", "us/letter", "lower", _per("universal.extend", "long")),
    ("universal.extend_failed_frac", "ratio", "lower", lambda v: v.ratio("universal.extend.failed", "universal.extend.calls")),
    ("universal.verify_morphism_us_per_sample", "us/sample", "lower", _per("universal.verify_morphism")),
    ("universal.verify_uniqueness_us_per_word", "us/word", "lower", _per("universal.verify_uniqueness")),
    ("census.canonical_form_us.order3", "us/candidate", "lower", _per("census.canonical_form", "order3")),
    ("census.canonical_form_us.order4", "us/candidate", "lower", _per("census.canonical_form", "order4")),
    ("census.census_s.order3", "s", "lower", _per("census.census", "order3", scale=1)),
    ("census.census_s.order3_iso", "s", "lower", _per("census.census", "order3_iso", scale=1)),
    ("census.iter_matching_us_per_yield.order4", "us/yield", "lower", _per("census.iter_matching", "order4")),
    ("trace.overhead_s", "s", "lower", None),
]


def layer_metrics(tracer, overhead_s):
    view = LayerView(tracer)
    return {
        name: overhead_s if how is None else how(view) for name, _, _, how in PER_LAYER
    }
