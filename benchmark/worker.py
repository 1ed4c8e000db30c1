"""Run one pass of a benchmark plan in a fresh interpreter.

Usage: python worker.py PLAN OUT [--trace] [--keep-output]

Run from the directory that holds the plan's input files, with opengw
importable.  Each op is timed around the single call into opengw, less the
time clock.Sampler ran its kernel inside the call; ``cal_s`` is the kernel
time sampled around the op, by which run.py rescales it.  The op's stdout
is captured, hashed, and kept in OUT only with --keep-output.  With --trace
the spans and counts of tracing.install() go to OUT as well.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import threading
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import opengw
import opengw.cli

from clock import Sampler
from workloads import live_children, series_lines


def _prepare(op):
    # inputs of library ops are built before the clock starts
    if op["kind"] == "explog":
        terms = {opengw.RelClass(b, tuple(g), tuple(h)): Fraction(q) for b, g, h, q in op["terms"]}
        return opengw.ClassSeries(op["n"], op["m"], terms)
    if op["kind"] == "identity":
        return opengw.FanSpec(op["n"], ())
    return None


def _call(op, arg):
    # looked up at call time, so traced wrappers are the ones called
    if op["kind"] == "cli":
        return opengw.cli.main(op["argv"])
    if op["kind"] == "identity":
        return opengw.verify_wall_cross_identity(arg, op["trunc"])
    return opengw.series_exp(opengw.series_log(arg, op["trunc"]), op["trunc"])


def _text(op, result, stdout: str) -> tuple[int, str]:
    if op["kind"] == "cli":
        return result, stdout
    if op["kind"] == "identity":
        return 0, f"{result}\n"
    return 0, series_lines({(c.b, c.g, c.h): q for c, q in result.items()})


def main(argv) -> int:
    plan_path, out_path = argv[0], argv[1]
    trace, keep = "--trace" in argv, "--keep-output" in argv
    ops = json.loads(Path(plan_path).read_text())
    tracer = None
    if trace:
        import tracing

        tracer = tracing.install()
    results, times = [], []
    with Sampler() as sampler:
        for i, op in enumerate(ops):
            arg = _prepare(op)
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.op = i
            error = None
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = perf_counter()
                try:
                    result = _call(op, arg)
                except Exception as exc:  # an exception escaping main is a failed op
                    result, error = None, f"{type(exc).__name__}: {exc}"
                times.append((t0, perf_counter()))
            code, text = (None, out.getvalue()) if error else _text(op, result, out.getvalue())
            if op.get("stdout_to"):
                Path(op["stdout_to"]).write_text(text, encoding="utf-8")
            rec = {"id": op["id"], "exit": code, "error": error,
                   "stderr": err.getvalue()[-500:],
                   "sha": hashlib.sha256(text.encode("utf-8")).hexdigest()}
            if keep:
                rec["out"] = text
            results.append(rec)
    # the kernel samples after an op are needed to rescale it
    for rec, (t0, t1) in zip(results, times):
        rec["s"] = t1 - t0 - sampler.busy(t0, t1)
        rec["cal_s"] = sampler.cal_s(t0, t1)
    doc = {
        "ops": results,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "threads": threading.active_count(),
        "children": live_children(),
    }
    if tracer is not None:
        doc["spans"] = tracer.spans
        doc["counts"] = dict(tracer.counts)
    Path(out_path).write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
