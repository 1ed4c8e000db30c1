"""opengw benchmark: one workload, one seed, exact oracles, pass-level timings.

Usage, from the repository root:

    python3 benchmark/run.py --workload {invariants,gluing,identity,eval}
        --seed N --seconds S --trace {0,1}

Load shape: a closed loop with one caller.  The seed fixes the inputs, which
set-up writes under .bench_work/.  Each timed pass is a fresh interpreter
(worker.py) that runs every op of the workload once, in order, so no memo
survives from one pass to the next and no input repeats inside a pass.  The
runner starts one worker at a time and waits for it, and passes repeat until
the next one would end after S seconds, with at least MIN_PASSES untraced
passes.  Set-up runs again before every pass and at least SETUP_REPEATS
times, so that its samples spread over the run.  Every end-to-end time is
rescaled to the reference host speed of clock.py; the seconds as measured
are printed before the result and kept in the record.

The first pass's stdout is checked against the workload's oracles and every
later pass must print byte-identical output.  With --trace 0 the last stdout
line holds the end-to-end metrics; with --trace 1 untraced and traced passes
alternate and it holds the per-layer metrics of tracing.py.  A record with
the machine, the seed and every pass goes to .bench_results/.  The exit code
is 0 when every output is exact, and 1 on any oracle mismatch other than the
counted multi-term eval ops; 2 when the run cannot start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
from clock import calibrate, scaled  # noqa: E402
from workloads import WORKLOADS, live_children  # noqa: E402

# two passes at least, so that the byte-identical stdout check has a pair
MIN_PASSES = 2
SETUP_REPEATS = 9
# kernel runs before and after each set-up, about 20 ms each way
SETUP_CAL_RUNS = 9
WORKER_TIMEOUT_S = 170

# (name, unit) of every end-to-end metric, all lower-is-better
END_TO_END = [
    ("wall_s", "s"),
    ("heavy_op_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


class BenchError(Exception):
    pass


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "seed": seed}


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _spawn(cmd: list[str], cwd: Path) -> subprocess.CompletedProcess:
    # one worker at a time: nothing may still run when the next one starts
    if live_children():
        raise BenchError(f"worker processes still running: {live_children()}")
    try:
        proc = subprocess.run(cmd, cwd=cwd, env=_worker_env(), capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[1:]} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1:]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def setup(plan, work: Path) -> tuple[float, float]:
    """Write the seeded inputs and start an interpreter that imports opengw.

    Returns the seconds it took and the same at reference speed."""
    cal_before = statistics.median(calibrate() for _ in range(SETUP_CAL_RUNS))
    t0 = perf_counter()
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    for name, text in plan.files.items():
        (work / name).write_text(text, encoding="utf-8")
    (work / "plan.json").write_text(json.dumps(plan.ops), encoding="utf-8")
    _spawn([sys.executable, "-c", "import opengw"], work)
    seconds = perf_counter() - t0
    cal_after = statistics.median(calibrate() for _ in range(SETUP_CAL_RUNS))
    return seconds, scaled(seconds, (cal_before + cal_after) / 2)


def run_pass(work: Path, index: int, trace: bool, keep: bool) -> dict:
    out = f"pass{index}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "plan.json", out]
    cmd += ["--trace"] if trace else []
    cmd += ["--keep-output"] if keep else []
    _spawn(cmd, work)
    doc = json.loads((work / out).read_text(encoding="utf-8"))
    if doc["children"] or doc["threads"] != 1:
        raise BenchError(f"worker left {doc['children']} children and {doc['threads']} threads")
    doc["trace"] = trace
    doc["raw_wall_s"] = sum(op["s"] for op in doc["ops"])
    doc["wall_s"] = sum(scaled(op["s"], op["cal_s"]) for op in doc["ops"])
    return doc


def check(plan, passes: list[dict]) -> tuple[int, list[str]]:
    """Failed op count over all passes, and errors other than counted failures."""
    failed, errors = 0, []
    for i, rec in enumerate(passes[0]["ops"]):
        if any(p["ops"][i]["sha"] != rec["sha"] for p in passes):
            errors.append(f"{rec['id']}: stdout differs between passes")
        crashed = rec["error"] is not None or rec["exit"] != 0
        known = plan.ops[i].get("known_failure")
        if known:
            # a known failure: counted, not fatal, if it fails as expected
            if crashed:
                failed += len(passes)
            if rec["error"] != known:
                got = (rec["error"] or f"exit {rec['exit']}") if crashed else "a value"
                errors.append(f"{rec['id']}: expected {known!r}, got {got}")
            continue
        if crashed:
            problem = rec["error"] or f"exit {rec['exit']}: {rec['stderr']}"
        else:
            try:
                problem = plan.checks[rec["id"]](rec["out"])
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problem = f"unreadable output: {type(exc).__name__}: {exc}"
        if problem:
            failed += len(passes)
            errors.append(f"{rec['id']}: {problem}")
    return failed, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "opengw" / "__init__.py").is_file():
        print(f"opengw sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment(args.seed)
    print("env " + json.dumps(env), flush=True)
    plan = WORKLOADS[args.workload](random.Random(f"{args.workload}:{args.seed}"))
    heavy = [op["id"] for op in plan.ops if op.get("heavy")]
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    # a traced run needs the counts, not steady timings: one round will do
    min_rounds = 1 if args.trace else MIN_PASSES
    try:
        setups: list[tuple[float, float]] = []
        passes: list[dict] = []
        start = perf_counter()
        while True:
            setups.append(setup(plan, work))
            passes.append(run_pass(work, len(passes), False, keep=not passes))
            if args.trace:
                passes.append(run_pass(work, len(passes), True, keep=False))
            rounds = len(setups)
            elapsed = perf_counter() - start
            if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > args.seconds:
                break
        while len(setups) < SETUP_REPEATS:
            setups.append(setup(plan, work))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed, errors = check(plan, passes)
    plain = [p for p in passes if not p["trace"]]
    traced = [p for p in passes if p["trace"]]
    if args.trace:
        metrics = _layer_metrics(traced, plain, errors)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        # every time is at reference speed (clock.py); a heavy op of several
        # calls is their sum within a pass
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "heavy_op_s": statistics.median(
                sum(scaled(op["s"], op["cal_s"]) for op in p["ops"] if op["id"] in heavy)
                for p in plain),
            "setup_s": statistics.median(ref for _, ref in setups),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
        }
        units = dict(END_TO_END)
    result = {
        "correct": not errors,
        "attempted": sum(len(p["ops"]) for p in passes),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    _write_record(args, env, heavy, setups, passes, errors, result)
    for err in errors:
        print(f"oracle: {err}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"measured pass {statistics.median(p['raw_wall_s'] for p in plain):.6g} s, "
          f"set-up {statistics.median(raw for raw, _ in setups):.6g} s, before rescaling")
    print(f"ops_failed {failed}/{result['attempted']} passes {len(plain)}+{len(traced)} traced")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def _layer_metrics(traced: list[dict], plain: list[dict], errors: list[str]) -> dict:
    summaries = [tracing.summarize(p["spans"], p["counts"]) for p in traced]
    counts = [{k: v for k, v in s.items() if isinstance(v, int)} for s in summaries]
    if any(c != counts[0] for c in counts):
        errors.append("traced passes disagree on per-layer counts")
    # counts are equal across traced passes; only times take the median
    out = {k: statistics.median(s[k] for s in summaries) for k in summaries[0]}
    out.update(counts[0])
    out["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                               - statistics.median(p["wall_s"] for p in plain))
    return out


def _write_record(args, env, heavy, setups, passes, errors, result) -> None:
    """Keep everything the run saw, so a result can be traced to its machine."""
    records = ROOT / ".bench_results"
    records.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    doc = {
        "env": env,
        "args": vars(args),
        "heavy_op": heavy,
        "errors": errors,
        "result": result,
        "setups": [{"s": raw, "ref_s": ref} for raw, ref in setups],
        "passes": [{"trace": p["trace"], "wall_s": p["wall_s"], "raw_wall_s": p["raw_wall_s"],
                    "rss_mb": p["rss_mb"],
                    "ops": {op["id"]: [op["s"], op["cal_s"]] for op in p["ops"]}}
                   for p in passes],
    }
    (records / f"{name}.json").write_text(json.dumps(doc, indent=1), encoding="utf-8")
    spans = [p for p in passes if p["trace"]]
    if spans:
        (records / f"{name}-spans.json").write_text(
            json.dumps({"spans": spans[-1]["spans"], "counts": spans[-1]["counts"]}),
            encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
