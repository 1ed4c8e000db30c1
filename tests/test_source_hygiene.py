"""Source checks on src/opengw, standard library only.

Deleting code tends to leave imports that nothing uses, and the packed
kernel's internals (_Packer, _graded_solve, _convolve, _Rows) belong to series
alone: other modules reach it through its helpers.

Each value type has one stored form, set once, and SLOTS names it with the
module that owns it: a ClassSeries is its packed operand (_packed), which
only series reads and only ClassSeries.__init__ and series._unpacked set;
an InvariantTable is its columns (_columns), which only InvariantTable
sets; a NovikovScalar is its int columns (_ints), which only novikov reads
and only NovikovScalar's constructors set; other modules read them
through columns().  No slot holds a second copy (the read-only items()
cache _items is gone, and a scalar keeps no Fraction terms), and digit
columns are the one way back from keys to classes, so no .unpack( is
left.

The sums sum p f**e over integer e, times_powers, divide_by_power and the
gluing map, are one engine, series._powered: it alone prepares f and
calls Miller's solve, so a second prelude cannot come back unnoticed.
Likewise the int buckets of series and novikov are summed by one
function, series._summed, and convolved by one, series._products.

Start-up is part of every CLI call: the value types are plain classes,
so importing opengw loads neither dataclasses nor typing, nor the
inspect, ast, dis and tokenize modules that dataclasses pulls in; and the
command line reads argv against its own command table, so importing
opengw.cli loads neither argparse nor gettext.  No superpotential, gluing,
table or identity runs novikov or chambers, so importing opengw loads
neither; their names load them on first use, through the package's module
__getattr__, and reach the same objects as before.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "opengw"
# standard modules that importing opengw must not load
HEAVY = {"dataclasses", "typing", "inspect", "ast", "dis", "tokenize"}
KERNEL = {"_Packer", "_graded_solve", "_convolve", "_Rows"}
SLOTS = {"_packed": "series.py", "_columns": "wallcross.py", "_ints": "novikov.py"}
# the (module, enclosing class and function names) allowed to set each slot
SETTERS = {
    "_packed": {("series.py", ("ClassSeries", "__init__")), ("series.py", ("_unpacked",))},
    "_columns": {("wallcross.py", ("InvariantTable", "__init__")),
                 ("wallcross.py", ("InvariantTable", "_of"))},
    "_ints": {("novikov.py", ("NovikovScalar", "__init__")),
              ("novikov.py", ("NovikovScalar", "_of"))},
}


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


def test_no_dataclasses_or_typing_imports():
    hits = []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            hits += [f"{name}:{node.lineno} {m}" for m in modules
                     if m.split(".")[0] in {"dataclasses", "typing"}]
    assert not hits, f"dataclasses or typing imported: {hits}"


def _fresh(code: str) -> list[str]:
    # the words code prints in a fresh -S interpreter, which keeps site
    # (and whatever its .pth files import) out of sys.modules
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_import_loads_no_heavy_modules():
    code = (
        "import sys; before = set(sys.modules); import opengw; "
        "print(*sorted(set(sys.modules) - before))"
    )
    added = [m for m in _fresh(code) if m.split(".")[0] != "opengw"]
    assert "fractions" in added, added
    assert not HEAVY & set(added), f"import opengw loads {sorted(HEAVY & set(added))}"


def test_cli_import_loads_no_argparse():
    # the command line reads argv against its own table: importing it
    # loads neither argparse nor the gettext that argparse pulls in
    loaded = set(_fresh("import sys, opengw.cli; print(*sorted(sys.modules))"))
    assert "opengw.cli" in loaded, loaded
    assert not {"argparse", "gettext"} & loaded, sorted({"argparse", "gettext"} & loaded)


# the names opengw exports, by the module that defines them
EXPORTS = {
    "chambers": "B_MINUS B_PLUS DISCRIMINANT Chamber ChamberPoint CYFanRays classify_point "
                "cn_rays monodromy_matrix wall wall_component_tropical",
    "fan": "EnergyValues FanSpec RelClass ValidationReport beta_class beta_hat_class "
           "beta_prime_class builtin_fan class_boundary class_maslov class_name det_int "
           "gamma_class ray_decomposition sphere_class validate_fan zero_class",
    "novikov": "EnergyAssignment NovikovLaurent NovikovScalar assign_energies constant evaluate "
               "gauss_valuation laurent_mul scalar_inverse scalar_pow scalar_val t_monomial "
               "toric_superpotential trop",
    "series": "DEFAULT_TRUNC ClassSeries from_records monomial multiply power series_exp "
              "series_log to_records truncate_gamma",
    "wallcross": "Ambient Chart Direction GluingData InvariantRow InvariantTable Superpotential "
                 "apply_gluing chekanov_superpotential clifford_superpotential "
                 "closed_form_invariant glue_superpotential invariant_table solve_exp_G "
                 "verify_wall_cross_identity wall_cross_rhs wall_crossing_factor",
}


def test_import_loads_neither_novikov_nor_chambers():
    lazy = ["opengw.novikov", "opengw.chambers"]
    code = f"import sys, opengw; print(*[m in sys.modules for m in {lazy}])"
    assert _fresh(code) == ["False", "False"]
    code = f"import sys, opengw.cli; print(*[m in sys.modules for m in {lazy}])"
    assert _fresh(code) == ["True", "False"]


def test_every_export_resolves_from_a_fresh_import():
    # each name is first reached by from-import in a fresh interpreter, then
    # as an attribute: both are its defining module's object, and dir lists it
    code = (
        "import importlib, opengw\n"
        f"for module, names in {EXPORTS!r}.items():\n"
        "    for name in names.split():\n"
        "        ns = {}\n"
        "        exec(f'from opengw import {name}', ns)\n"
        "        defined = getattr(importlib.import_module(f'opengw.{module}'), name)\n"
        "        ok = ns[name] is opengw.__dict__[name] is getattr(opengw, name) is defined\n"
        "        print(name, ok and name in dir(opengw))\n"
    )
    words = _fresh(code)
    got = dict(zip(words[::2], words[1::2]))
    want = [name for names in EXPORTS.values() for name in names.split()]
    assert sorted(got) == sorted(want)
    assert not [name for name, ok in got.items() if ok != "True"]


def test_unknown_name_raises_attribute_error():
    import opengw

    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        opengw.no_such_name
    with pytest.raises(ImportError):
        from opengw import no_such_name  # noqa: F401
    # a submodule is no lazy name: from-import falls through to importing it
    from opengw import chambers, novikov

    assert (novikov.__name__, chambers.__name__) == ("opengw.novikov", "opengw.chambers")


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
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and SLOTS.get(node.attr, name) != name
    ]
    assert not reads, f"stored forms read outside their modules: {reads}"


def _assigned(node, scope=()):
    # (enclosing class and function names, line, slot) of every assignment
    # that sets a slot or writes into it, at any depth of its target
    if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
        scope += (node.name,)
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
        targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Attribute) and sub.attr in SLOTS:
                    yield scope, node.lineno, sub.attr
    for child in ast.iter_child_nodes(node):
        yield from _assigned(child, scope)


def test_stored_forms_are_set_once():
    # a ClassSeries or InvariantTable never changes once made: each slot is
    # set only where the value is made
    writes = [
        f"{name}:{line} {'.'.join(scope)} sets .{slot}"
        for name, tree in _modules().items()
        for scope, line, slot in _assigned(tree)
        if (name, scope) not in SETTERS[slot]
    ]
    assert not writes, f"stored forms set after they are made: {writes}"


def _class(tree, name):
    return next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == name)


def _slots(node):
    return next(
        ast.literal_eval(stmt.value)
        for stmt in node.body
        if isinstance(stmt, ast.Assign) and [t.id for t in stmt.targets] == ["__slots__"]
    )


def test_one_stored_form_and_one_reader():
    modules = _modules()
    series, wallcross = modules["series.py"], modules["wallcross.py"]
    assert _slots(_class(series, "ClassSeries")) == ("n", "m", "_packed")
    assert _slots(_class(wallcross, "InvariantTable")) == ("_columns",)
    assert _slots(_class(modules["novikov.py"], "NovikovScalar")) == ("_ints", "cutoff")
    # keys are read back only as digit columns (_Packer.columns, then
    # fan._classes): no decoder of one key, no merge of a series on read
    defined = {node.name for node in ast.walk(series) if isinstance(node, ast.FunctionDef)}
    assert not defined & {"unpack", "_operand"}, defined & {"unpack", "_operand"}
    calls = [
        f"{name}:{node.lineno}"
        for name, tree in modules.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "unpack"
    ]
    assert not calls, f".unpack( calls: {calls}"


def _callers(node, name, scope=()):
    # the enclosing class and function names of every call of name, a
    # plain or a dotted name such as NovikovScalar._of
    if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
        scope += (node.name,)
    if isinstance(node, ast.Call) and ast.unparse(node.func) == name:
        yield scope
    for child in ast.iter_child_nodes(node):
        yield from _callers(child, name, scope)


def test_one_signed_power_engine():
    modules = _modules()
    series = modules["series.py"]
    defined = {node.name for tree in modules.values() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)}
    assert not defined & {"_power_sum", "_divided"}, defined & {"_power_sum", "_divided"}
    # each entry point is one engine call, and within series only the
    # engine runs Miller's solve (wallcross.evaluate_chekanov runs it on
    # T-exponent keys)
    assert sorted(_callers(series, "_powered")) == [("_glued",), ("divide_by_power",),
                                                    ("times_powers",)]
    assert list(_callers(series, "_times_powers")) == [("_powered",)]


def test_one_bucket_arithmetic():
    # every sum of (den, nums) buckets in series and novikov is
    # series._summed and every product of them series._products, and the
    # int buckets become a NovikovScalar only through novikov._merged
    # (__neg__ and scalar_inverse build theirs from columns)
    modules = _modules()
    summed = sorted((name, scope) for name, tree in modules.items()
                    for scope in _callers(tree, "_summed"))
    assert summed == [("novikov.py", ("_merged",)), ("series.py", ("_packed_sum",)),
                      ("series.py", ("_powered",)), ("series.py", ("series_log",))]
    novikov = modules["novikov.py"]
    products = set(_callers(novikov, "_products"))
    assert {("_product",), ("evaluate",)} <= products, products
    made = sorted((name, scope) for name, tree in modules.items()
                  for scope in _callers(tree, "NovikovScalar._of"))
    assert made == [("novikov.py", ("NovikovScalar", "__neg__")), ("novikov.py", ("_merged",)),
                    ("novikov.py", ("scalar_inverse",))]
