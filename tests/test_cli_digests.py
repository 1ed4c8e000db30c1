"""Byte-identity gate: CLI runs against the digests of their output.

tests/cli_digests.json holds the input documents under "files" and, under
"runs", each run's argv with its exit code, the SHA-256 of its stdout and
the last line of its stderr.  The runs go through cli.main in one process,
in order, in a scratch directory holding the documents; a run with "save"
writes its stdout there under that name, for the later runs that read it
(glue reads the superpotential series it saves).

The table runs in this process, and again in two fresh ones under
PYTHONHASHSEED 0 and 1, so no output may follow the hash order of str
keys.  Every subcommand of cli.COMMANDS and every --format choice has at
least one run, so a new command or format needs a digest before it ships.

A change that alters a digest on purpose regenerates the table with

    PYTHONPATH=src python tests/test_cli_digests.py > tests/cli_digests.json

and says which digest changed and why.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from opengw import cli

TABLE = Path(__file__).with_name("cli_digests.json")


def _outcomes(table: dict, where: Path) -> list[dict]:
    # each run's argv with its exit code, stdout digest and last stderr line
    for name, doc in table["files"].items():
        (where / name).write_text(json.dumps(doc))
    names = set(table["files"]) | {run["save"] for run in table["runs"] if "save" in run}
    outcomes = []
    for run in table["runs"]:
        argv = [str(where / a) if a in names else a for a in run["argv"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if "save" in run:
            (where / run["save"]).write_text(out.getvalue())
        lines = err.getvalue().splitlines()
        outcomes.append({
            "argv": run["argv"],
            **({"save": run["save"]} if "save" in run else {}),
            "code": code,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr_tail": lines[-1] if lines else "",
        })
    return outcomes


def test_cli_output_digests(tmp_path):
    table = json.loads(TABLE.read_text())
    got = _outcomes(table, tmp_path)
    changed = [run["argv"] for run, want in zip(got, table["runs"]) if run != want]
    assert not changed, f"output changed for {changed}"


@pytest.mark.parametrize("seed", ["0", "1"])
def test_digests_hold_under_each_hash_seed(seed):
    # the table rerun by this module's __main__ in a fresh process
    table = json.loads(TABLE.read_text())
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONHASHSEED": seed,
           "PYTHONPATH": src + (os.pathsep + path if path else "")}
    done = subprocess.run([sys.executable, str(Path(__file__).resolve())], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)["runs"]
    changed = [run["argv"] for run, want in zip(got, table["runs"]) if run != want]
    assert not changed and len(got) == len(table["runs"]), f"output changed for {changed}"


def test_every_command_and_format_is_pinned():
    # each subcommand and each --format choice appears in a run
    argvs = [run["argv"] for run in json.loads(TABLE.read_text())["runs"]]
    commands = {argv[0] for argv in argvs}
    formats = {value for argv in argvs for flag, value in zip(argv, argv[1:])
               if flag == "--format"}
    formats |= {arg.partition("=")[2] for argv in argvs for arg in argv
                if arg.startswith("--format=")}
    choices = {choice for _, _, _, flags in cli.COMMANDS.values() if "--format" in flags
               for choice in flags["--format"][2]}
    assert not set(cli.COMMANDS) - commands, f"no digest runs {set(cli.COMMANDS) - commands}"
    assert not choices - formats, f"no digest runs --format {choices - formats}"


if __name__ == "__main__":
    table = json.loads(TABLE.read_text())
    with tempfile.TemporaryDirectory() as where:
        runs = _outcomes(table, Path(where))
    # one document and one run per line
    files = ",\n".join(f"  {json.dumps(name)}: {json.dumps(doc)}"
                       for name, doc in table["files"].items())
    runs = ",\n".join(f"  {json.dumps(run, ensure_ascii=False)}" for run in runs)
    sys.stdout.write(f'{{\n "files": {{\n{files}\n }},\n "runs": [\n{runs}\n ]\n}}\n')
