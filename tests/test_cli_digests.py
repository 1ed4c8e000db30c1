"""Byte-identity gate: CLI runs against the digests of their output.

tests/cli_digests.json holds the input documents under "files" and, under
"runs", each run's argv with its exit code, the SHA-256 of its stdout and
the last line of its stderr.  The runs go through cli.main in one process,
in order, in a scratch directory holding the documents; a run with "save"
writes its stdout there under that name, for the later runs that read it
(glue reads the superpotential series it saves).

A change that alters a digest on purpose regenerates the table with

    PYTHONPATH=src python tests/test_cli_digests.py > tests/cli_digests.json

and says which digest changed and why.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

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


if __name__ == "__main__":
    table = json.loads(TABLE.read_text())
    with tempfile.TemporaryDirectory() as where:
        runs = _outcomes(table, Path(where))
    # one document and one run per line
    files = ",\n".join(f"  {json.dumps(name)}: {json.dumps(doc)}"
                       for name, doc in table["files"].items())
    runs = ",\n".join(f"  {json.dumps(run, ensure_ascii=False)}" for run in runs)
    sys.stdout.write(f'{{\n "files": {{\n{files}\n }},\n "runs": [\n{runs}\n ]\n}}\n')
