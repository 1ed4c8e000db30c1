"""Spans and counts around opengw's public functions, installed from outside.

``install()`` wraps each traced function and rebinds the wrapper wherever
an ``opengw`` module holds the original object.  Rebinding only the
defining module would miss calls made through names that ``wallcross``,
``cli`` and the package ``__init__`` imported with ``from .series import``.
Spans ``[id, parent, name, start, end, op]`` and counts stay in memory until
the worker writes them out at exit; ``summarize()`` turns them into the
per-layer metrics.  ``opengw.chambers`` is left untraced on purpose: its
calls take microseconds and nothing in the benchmark depends on them.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# (name, unit, better) of every per-layer metric the traced run reports
PER_LAYER = [
    ("fan.relclass_add.calls", "count", "lower"),
    ("series.multiply.s", "s", "lower"),
    ("series.multiply.calls", "count", "lower"),
    ("series.multiply.pairs", "count", "lower"),
    ("series.multiply.terms_out", "count", "lower"),
    ("series.multiply.out_per_pair", "ratio", "higher"),
    ("series.power.pos_s", "s", "lower"),
    ("series.power.neg_s", "s", "lower"),
    ("series.power.neg_terms_out", "count", "lower"),
    ("series.truncate_gamma.s", "s", "lower"),
    ("series.truncate_gamma.terms_in", "count", "lower"),
    ("series.truncate_gamma.kept_ratio", "ratio", "higher"),
    ("series.series_exp.s", "s", "lower"),
    ("series.series_exp.terms_out", "count", "lower"),
    ("series.series_log.s", "s", "lower"),
    ("series.series_log.terms_out", "count", "lower"),
    ("series.peak_terms", "count", "lower"),
    ("series.from_records.s", "s", "lower"),
    ("series.to_records.s", "s", "lower"),
    ("wallcross.chekanov_superpotential.s", "s", "lower"),
    ("wallcross.invariant_table.s", "s", "lower"),
    ("wallcross.apply_gluing.s", "s", "lower"),
    ("wallcross.apply_gluing.self_s", "s", "lower"),
    ("wallcross.apply_gluing.terms_in", "count", "lower"),
    ("wallcross.apply_gluing.terms_out", "count", "lower"),
    ("wallcross.wall_cross_rhs.self_s", "s", "lower"),
    ("novikov.evaluate.s", "s", "lower"),
    ("novikov.evaluate.self_s", "s", "lower"),
    ("novikov.evaluate.terms_in", "count", "lower"),
    ("novikov.scalar_add.calls", "count", "lower"),
    ("novikov.scalar_add.terms_merged", "count", "lower"),
    ("novikov.scalar_pow.s", "s", "lower"),
    ("novikov.scalar_pow.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.parse_fan_spec.s", "s", "lower"),
    ("cli.render.s", "s", "lower"),
    ("cli.render.bytes", "B", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    """In-memory span and count store for one pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.stack: list[int] = []
        self.op: int | None = None

    def wrap(self, fn, name, after=None):
        """Span wrapper; name may be a function of the call's arguments.
        after(counts, args, result) records the call's counts."""
        spans, stack, counts = self.spans, self.stack, self.counts

        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None,
                   name(*args, **kwargs) if callable(name) else name, 0.0, 0.0, self.op]
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
            if after is not None:
                after(counts, args, result)
            return result

        return traced


def _rebind(orig, wrapper) -> None:
    found = 0
    for modname, mod in list(sys.modules.items()):
        if modname == "opengw" or modname.startswith("opengw."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)
                    found += 1
    if not found:
        raise RuntimeError(f"no opengw module binds {orig!r}")


def install() -> Tracer:
    """Wrap the traced functions of an imported opengw; returns the store."""
    import opengw.cli
    from opengw import fan, novikov, series, wallcross

    tracer = Tracer()
    counts = tracer.counts

    def peak(c, result):
        if isinstance(result, series.ClassSeries) and len(result) > c["series.peak_terms"]:
            c["series.peak_terms"] = len(result)

    def multiply_counts(c, args, result):
        c["series.multiply.calls"] += 1
        c["series.multiply.pairs"] += len(args[0]) * len(args[1])
        c["series.multiply.terms_out"] += len(result)
        peak(c, result)

    def power_counts(c, args, result):
        if args[1] < 0:
            c["series.power.neg_terms_out"] += len(result)
        peak(c, result)

    def truncate_counts(c, args, result):
        c["series.truncate_gamma.terms_in"] += len(args[0])
        c["series.truncate_gamma.terms_out"] += len(result)
        peak(c, result)

    def terms_out(key):
        def record(c, args, result):
            c[key] += len(result)
            peak(c, result)
        return record

    def gluing_counts(c, args, result):
        c["wallcross.apply_gluing.terms_in"] += len(args[1])
        c["wallcross.apply_gluing.terms_out"] += len(result)
        peak(c, result)

    def evaluate_counts(c, args, result):
        c["novikov.evaluate.terms_in"] += len(args[0])

    def pow_counts(c, args, result):
        c["novikov.scalar_pow.calls"] += 1

    def render_counts(c, args, result):
        c["cli.render.bytes"] += len(result.encode("utf-8"))

    def peak_only(c, args, result):
        peak(c, result)

    spans = [
        (series.multiply, "series.multiply", multiply_counts),
        (series.power, lambda f, k, *rest, **kw: "series.power.pos" if k >= 0 else "series.power.neg",
         power_counts),
        (series.truncate_gamma, "series.truncate_gamma", truncate_counts),
        (series.series_exp, "series.series_exp", terms_out("series.series_exp.terms_out")),
        (series.series_log, "series.series_log", terms_out("series.series_log.terms_out")),
        (series.from_records, "series.from_records", peak_only),
        (series.to_records, "series.to_records", None),
        (wallcross.chekanov_superpotential, "wallcross.chekanov_superpotential", None),
        (wallcross.invariant_table, "wallcross.invariant_table", None),
        (wallcross.apply_gluing, "wallcross.apply_gluing", gluing_counts),
        (wallcross.wall_cross_rhs, "wallcross.wall_cross_rhs", None),
        (novikov.evaluate, "novikov.evaluate", evaluate_counts),
        (novikov.scalar_pow, "novikov.scalar_pow", pow_counts),
        (opengw.cli.main, "cli.main", None),
        (opengw.cli.parse_fan_spec, "cli.parse_fan_spec", None),
        (opengw.cli.render_invariants, "cli.render", render_counts),
        (opengw.cli.render_series, "cli.render", render_counts),
        (opengw.cli.render_scalar, "cli.render", render_counts),
    ]
    for fn, name, after in spans:
        _rebind(fn, tracer.wrap(fn, name, after))

    # hot methods get a bare counter: a span per call would swamp the pass
    relclass_add = fan.RelClass.__add__

    def counted_relclass_add(self, other):
        counts["fan.relclass_add.calls"] += 1
        return relclass_add(self, other)

    scalar_add = novikov.NovikovScalar.__add__

    def counted_scalar_add(self, other):
        counts["novikov.scalar_add.calls"] += 1
        counts["novikov.scalar_add.terms_merged"] += len(self.terms) + len(other.terms)
        return scalar_add(self, other)

    fan.RelClass.__add__ = counted_relclass_add
    novikov.NovikovScalar.__add__ = counted_scalar_add
    return tracer


def span_times(spans: list) -> tuple[dict, dict]:
    """Inclusive and self seconds per span name.

    Inclusive time counts a span only when no ancestor has the same name,
    so recursion (scalar_pow of a negative power) is not counted twice.
    Self time is a span's duration minus that of its direct children.
    """
    parent = {s[0]: s[1] for s in spans}
    name = {s[0]: s[2] for s in spans}
    child = defaultdict(float)
    for s in spans:
        if s[1] is not None:
            child[s[1]] += s[4] - s[3]
    incl, self_ = defaultdict(float), defaultdict(float)
    for sid, par, nm, start, end, _ in spans:
        dur = end - start
        self_[nm] += dur - child[sid]
        up = par
        while up is not None and name[up] != nm:
            up = parent[up]
        if up is None:
            incl[nm] += dur
    return incl, self_


def summarize(spans: list, counts: dict) -> dict:
    """Per-layer metric values, without trace.overhead_s, from one traced pass."""
    incl, self_ = span_times(spans)
    c = defaultdict(int, counts)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "series.multiply.s": incl["series.multiply"],
        "series.multiply.out_per_pair": ratio(c["series.multiply.terms_out"], c["series.multiply.pairs"]),
        "series.power.pos_s": incl["series.power.pos"],
        "series.power.neg_s": incl["series.power.neg"],
        "series.truncate_gamma.s": incl["series.truncate_gamma"],
        "series.truncate_gamma.kept_ratio": ratio(
            c["series.truncate_gamma.terms_out"], c["series.truncate_gamma.terms_in"]),
        "series.series_exp.s": incl["series.series_exp"],
        "series.series_log.s": incl["series.series_log"],
        "series.from_records.s": incl["series.from_records"],
        "series.to_records.s": incl["series.to_records"],
        "wallcross.chekanov_superpotential.s": incl["wallcross.chekanov_superpotential"],
        "wallcross.invariant_table.s": incl["wallcross.invariant_table"],
        "wallcross.apply_gluing.s": incl["wallcross.apply_gluing"],
        "wallcross.apply_gluing.self_s": self_["wallcross.apply_gluing"],
        "wallcross.wall_cross_rhs.self_s": self_["wallcross.wall_cross_rhs"],
        "novikov.evaluate.s": incl["novikov.evaluate"],
        "novikov.evaluate.self_s": self_["novikov.evaluate"],
        "novikov.scalar_pow.s": incl["novikov.scalar_pow"],
        "cli.main.self_s": self_["cli.main"],
        "cli.parse_fan_spec.s": incl["cli.parse_fan_spec"],
        "cli.render.s": incl["cli.render"],
    }
    for name, unit, _ in PER_LAYER:
        if unit in ("count", "B"):
            out[name] = c[name]
    return out
