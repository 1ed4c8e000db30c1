"""Source checks on src/opengw, standard library only.

Deleting code tends to leave imports that nothing uses, and the packed
kernel's internals (_Packer, _graded_solve, _convolve, _Rows) belong to series
alone: other modules reach it through its helpers, and read a series only
through ClassSeries methods, never through its stored form (the slots
_packed and _items).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "opengw"
KERNEL = {"_Packer", "_graded_solve", "_convolve", "_Rows"}
SLOTS = {"_packed", "_items"}


def _modules():
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _imported(tree):
    # (bound name, line) of every import outside __future__
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_no_unused_imports():
    # __init__.py imports the public names in order to export them
    unused = []
    for name, tree in _modules().items():
        if name == "__init__.py":
            continue
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{name}:{line} {bound}" for bound, line in _imported(tree) if bound not in used]
    assert not unused, f"unused imports: {unused}"


def test_kernel_internals_stay_in_series():
    leaks = [
        f"{name}:{node.lineno} {alias.name}"
        for name, tree in _modules().items()
        if name != "series.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name in KERNEL
    ]
    assert not leaks, f"series kernel internals imported elsewhere: {leaks}"
    reads = [
        f"{name}:{node.lineno} .{node.attr}"
        for name, tree in _modules().items()
        if name != "series.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in SLOTS
    ]
    assert not reads, f"ClassSeries slots read outside series: {reads}"
