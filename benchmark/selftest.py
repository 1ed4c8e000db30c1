"""Self-test of the benchmark itself.

Usage, from the repository root:

    python3 benchmark/selftest.py

For each workload of BENCHMARK.json it makes two traced runs on seed 1, one
traced run on seed 2 and one untraced run, each with --seconds 1, and checks
that

- every run is correct and reports exactly the metrics BENCHMARK.json names;
- the two traced runs on one seed give identical counts (units count and B:
  calls, pairs, terms, bytes);
- seed 2 changes at least one count.

It also checks that run.py fails without printing a result in a directory
that holds only BENCHMARK.json and the benchmark's own files.  It prints the
tracing overhead of every workload and exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED_A, SEED_B = 1, 2
SECONDS = 1


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


def counts(result: dict) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] in ("count", "B")}


def check_bare_copy() -> list[str]:
    """run.py must refuse to run where the program's sources are absent."""
    bare = ROOT / ".bench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / BENCH.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc, result = run("invariants", SEED_A, 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or result is not None:
        return [f"bare copy: exit {proc.returncode}, result {result}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}

    problems = check_bare_copy()
    for workload in (w["name"] for w in spec["workloads"]):
        results = {}
        for key, seed, trace in (("a1", SEED_A, 1), ("a2", SEED_A, 1), ("b", SEED_B, 1),
                                 ("plain", SEED_A, 0)):
            proc, result = run(workload, seed, trace)
            if result is None or not result["correct"] or proc.returncode != 0:
                problems.append(f"{workload} seed {seed} trace {trace}: exit {proc.returncode} "
                                f"{proc.stderr[-1000:]}")
                break
            if sorted(result["metrics"]) != sorted(names[trace]):
                problems.append(f"{workload} trace {trace}: metrics differ from BENCHMARK.json")
            results[key] = result
        else:
            if counts(results["a1"]) != counts(results["a2"]):
                diff = {k for k, v in counts(results["a1"]).items() if counts(results["a2"])[k] != v}
                problems.append(f"{workload}: counts differ between runs on one seed: {sorted(diff)}")
            if counts(results["a1"]) == counts(results["b"]):
                problems.append(f"{workload}: seed {SEED_B} moves no count")
            overhead = [results[k]["metrics"]["trace.overhead_s"]["value"] for k in ("a1", "a2", "b")]
            print(f"{workload}: counts repeat on seed {SEED_A}, move on seed {SEED_B}; "
                  f"tracing overhead {', '.join(f'{v:+.3f}' for v in overhead)} s", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
