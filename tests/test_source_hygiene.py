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
cache _items is gone, and a scalar keeps no Fraction terms).  Digit rows
are the one way into keys: ClassSeries.__init__ and from_records both
hand series._encoded their classes' rows [*h, b, *g], and no class is
packed on its own (_Packer.pack is gone).  Digit columns are the one way
back from keys to classes, so no .unpack( is left.

The sums sum p f**e over integer e, times_powers, divide_by_power and the
gluing map, are one engine, series._powered: it alone prepares f and
calls Miller's solve, so a second prelude cannot come back unnoticed;
every graded solve on f = 1 + u takes u and its orthant from one
prelude, series._unit.  Outside series only novikov calls Miller's
solve, for every Novikov power and inverse (novikov._power, with no
loop of its own) and for evaluate_chekanov.  A class is valued at a torus point by one pass,
novikov._evaluated, for evaluate and evaluate_chekanov alike, and
monomial_character, a second one, is gone; it fixes its denominator
first and then loops over the terms once.  Int columns are brought over
their gcd by one helper, series._lowest_terms, and a ClassSeries
difference is one signed sum, with no negated copy of its right operand.  Likewise the int buckets of series and novikov are
summed by one function, series._summed, and convolved by one,
series._products; an operand is split into grade buckets by one,
series._graded; and assign_energies checks the area of each beta'_a
through EnergyAssignment.energy_of.  Every value type stores its fields
through _Value.__init__, but RelClass and InvariantRow, built per term
and per row, set theirs through the slots' own setters; only RelClass
spells out its own == and hash.  Kernel results are handed on, not
copied: series._unpacked and series._reduced rebuild a dict only when a
term cancelled.  The modules import one another in one direction
only, errors, fan, chambers, series, wallcross, novikov, cli: so
wallcross imports nothing from novikov.

Start-up is part of every CLI call: the value types are plain classes,
so importing opengw loads neither dataclasses nor typing, nor the
inspect, ast, dis and tokenize modules that dataclasses pulls in; and the
command line reads argv against its own command table, so importing
opengw.cli loads neither argparse nor gettext.  No superpotential, gluing,
table or identity runs novikov or chambers, so importing opengw loads
neither; their names load them on first use, through the package's module
__getattr__, and reach the same objects as before.

Output is rendered column by column.  cli fills no %-template per record:
its one % formats a whole small document, outside any loop.
encode_basestring runs on keys, on a scalar's cutoff and on the str
columns that one json.encoder.ESCAPE search flags, and on nothing else;
_table_text loops over its columns, never over rows.

Every rational the command line reads goes through fan.require_rational:
cli calls no Fraction( of its own, and parse_scalar_literal reads a
--point literal one term pattern match at a time, with no try and no
loop over characters.
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
    # engine runs Miller's solve; outside it only novikov runs it, on
    # T-exponent keys, for every Novikov power and for evaluate_chekanov
    assert sorted(_callers(series, "_powered")) == [("_glued",), ("divide_by_power",),
                                                    ("times_powers",)]
    assert list(_callers(series, "_times_powers")) == [("_powered",)]
    outside = sorted((name, scope) for name, tree in modules.items() if name != "series.py"
                     for scope in _callers(tree, "_times_powers"))
    assert outside == [("novikov.py", ("_power",)), ("novikov.py", ("evaluate_chekanov",))]


def test_novikov_powers_have_no_loop_of_their_own():
    # scalar_pow and scalar_inverse are their checks and one _power call,
    # and _power loops over nothing: its power is the Miller solve's
    novikov = _modules()["novikov.py"]
    defined = {node.name: node for node in novikov.body if isinstance(node, ast.FunctionDef)}
    for name in ("scalar_pow", "scalar_inverse"):
        assert list(_callers(defined[name], "_power")) == [(name,)], name
    loops = [f"{name}:{node.lineno}" for name in ("_power", "scalar_pow", "scalar_inverse")
             for node in ast.walk(defined[name]) if isinstance(node, (ast.For, ast.While))]
    assert not loops, f"loops in Novikov powers: {loops}"


def test_one_bucket_arithmetic():
    # every sum of (den, nums) buckets in series and novikov is
    # series._summed and every product of them series._products, and the
    # int buckets become a NovikovScalar only through novikov._merged
    # (__neg__ builds its own from columns)
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
    assert made == [("novikov.py", ("NovikovScalar", "__neg__")), ("novikov.py", ("_merged",))]


def test_one_class_evaluation_pass():
    # a class is valued at a point by one pass, novikov._evaluated, which
    # evaluate sums and evaluate_chekanov reads its generator values off;
    # only it and the Novikov powers turn a one-term coordinate's power
    # into ints, and the second evaluator of classes is gone
    modules = _modules()
    novikov = modules["novikov.py"]
    defined = {node.name for node in novikov.body if isinstance(node, ast.FunctionDef)}
    assert "monomial_character" not in defined
    evaluated = sorted((name, scope) for name, tree in modules.items()
                       for scope in _callers(tree, "_evaluated"))
    assert evaluated == [("novikov.py", ("evaluate",)), ("novikov.py", ("evaluate_chekanov",))]
    powers = sorted((name, scope) for name, tree in modules.items()
                    for scope in _callers(tree, "_monomial_power"))
    assert powers == [("novikov.py", ("_evaluated",)), ("novikov.py", ("_power",))]


def test_one_pass_over_the_terms():
    # _evaluated fixes its denominator before it loops over its items
    # once, making each power when a term first needs it: no rows are
    # saved for a second loop
    evaluated = next(node for node in _modules()["novikov.py"].body
                     if isinstance(node, ast.FunctionDef) and node.name == "_evaluated")
    loops = [node for node in ast.walk(evaluated) if isinstance(node, (ast.For, ast.comprehension))
             and ast.unparse(node.iter) == "items"]
    assert len(loops) == 1
    names = {node.id for node in ast.walk(evaluated) if isinstance(node, ast.Name)}
    assert not names & {"rows", "monomials", "folded"}, names & {"rows", "monomials", "folded"}
    fixed = next(i for i, node in enumerate(evaluated.body) if isinstance(node, ast.Assign)
                 and [ast.unparse(t) for t in node.targets] == ["d"])
    assert fixed < evaluated.body.index(loops[0])


def test_one_column_reducer():
    # int columns are brought over their gcd by series._lowest_terms alone:
    # ClassSeries.columns and both halves of NovikovScalar._of call it
    modules = _modules()
    reducers = sorted((name, scope) for name, tree in modules.items()
                      for scope in _callers(tree, "_lowest_terms"))
    assert reducers == [("novikov.py", ("NovikovScalar", "_of"))] * 2 + [
        ("series.py", ("ClassSeries", "columns"))]
    gcds = {(name, scope) for name, tree in modules.items()
            for scope in _callers(tree, "math.gcd")}
    assert not gcds & {("novikov.py", ("NovikovScalar", "_of")),
                       ("series.py", ("ClassSeries", "columns"))}


def test_subtraction_makes_no_negated_copy():
    # ClassSeries.__sub__ hands _packed_sum the sign of each part and
    # neither negates nor scales its right operand first
    series = _modules()["series.py"]
    cls = next(node for node in series.body
               if isinstance(node, ast.ClassDef) and node.name == "ClassSeries")
    sub = next(node for node in cls.body
               if isinstance(node, ast.FunctionDef) and node.name == "__sub__")
    assert not [node for node in ast.walk(sub) if isinstance(node, ast.UnaryOp)
                and isinstance(node.op, ast.USub) and not isinstance(node.operand, ast.Constant)]
    assert not list(_callers(sub, "other.scaled"))
    assert list(_callers(sub, "_packed_sum"))


def test_one_field_store_for_the_value_types():
    # every value type stores its fields through _Value.__init__, the one
    # object.__setattr__ call; NovikovLaurent's __setattr__ is an alias of
    # it, not a call
    stores = sorted((name, scope) for name, tree in _modules().items()
                    for scope in _callers(tree, "object.__setattr__"))
    assert stores == [("fan.py", ("_Value", "__init__"))]


def test_only_relclass_spells_out_eq_and_hash():
    # RelClass, built per term whenever a series is read, keeps its faster
    # == and hash; every other value type keeps _Value's (NovikovLaurent's
    # __hash__ = None makes it unhashable and defines none)
    own = sorted(
        node.name
        for tree in _modules().values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and "_Value" in map(ast.unparse, node.bases)
        and {"__eq__", "__hash__"} & {stmt.name for stmt in node.body
                                      if isinstance(stmt, ast.FunctionDef)}
    )
    assert own == ["RelClass"]


def test_one_way_into_the_kernel():
    # classes and records enter a series as digit rows through one encoder,
    # and every graded solve on f = 1 + u starts from one prelude
    series = _modules()["series.py"]
    defined = {node.name for node in ast.walk(series) if isinstance(node, ast.FunctionDef)}
    gone = {"pack", "_coord_bound", "_ints", "_unit_tail", "_graded_unit", "_graded_tail"}
    assert not defined & gone, defined & gone
    assert sorted(_callers(series, "_encoded")) == [("ClassSeries", "__init__"),
                                                    ("from_records",)]
    assert sorted(_callers(series, "_unit")) == [("_powered",), ("_times_exp_neg_log",),
                                                 ("series_log",)]


def _dicts_built(func):
    # the tests of the ifs whose bodies enclose each dict a function
    # builds (a display, a comprehension or a dict(...) call), innermost last
    found = []

    def visit(node, tests):
        if isinstance(node, (ast.Dict, ast.DictComp)) or (
                isinstance(node, ast.Call) and ast.unparse(node.func) == "dict"):
            found.append(tests)
        for field, value in ast.iter_fields(node):
            inner = tests + (ast.unparse(node.test),) if (
                isinstance(node, ast.If) and field == "body") else tests
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    visit(child, inner)

    visit(func, ())
    return found


def test_results_are_handed_on():
    # _unpacked keeps the dict it is given, and _reduced its accumulator:
    # each drops cancelled terms into a new dict only under a 0 in
    # ....values() test, and _reduced divides by a gcd above 1 into one
    series = _modules()["series.py"]
    funcs = {node.name: node for node in series.body if isinstance(node, ast.FunctionDef)}
    assert _dicts_built(funcs["_unpacked"]) == [("0 in nums.values()",)]
    assert _dicts_built(funcs["_reduced"]) == [("0 in acc.values()",), ("g > 1",)]


def test_one_grader():
    # series splits every operand into grade buckets through _graded
    defined = {node.name for node in ast.walk(_modules()["series.py"])
               if isinstance(node, ast.FunctionDef)}
    assert not defined & {"_bucketed", "_keys_on"}, defined & {"_bucketed", "_keys_on"}


def test_assign_energies_uses_the_area_rule():
    # each E(beta'_a) is EnergyAssignment.energy_of's, not a sum by hand
    assign = next(node for node in _modules()["novikov.py"].body
                  if isinstance(node, ast.FunctionDef) and node.name == "assign_energies")
    calls = [node for node in ast.walk(assign) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr == "energy_of"]
    assert calls, "assign_energies does not call energy_of"


def _enclosing(tree):
    # each node of tree with the function name and the nodes around it
    def visit(node, func, outer):
        yield node, func, outer
        if isinstance(node, ast.FunctionDef):
            func = node.name
        for child in ast.iter_child_nodes(node):
            yield from visit(child, func, outer + (node,))

    yield from visit(tree, None, ())


LOOPS = (ast.For, ast.While, ast.comprehension, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp, ast.Lambda)


def test_renderers_work_column_by_column():
    # cli fills no %-template per record: its one % formats a whole
    # document, outside any loop, and no __mod__ is mapped.
    # encode_basestring runs on keys, on a scalar's cutoff and on the str
    # columns a json.encoder.ESCAPE search flags, no others.  _table_text
    # loops over its columns alone
    nodes = list(_enclosing(_modules()["cli.py"]))
    assert not [node for node, _, _ in nodes
                if isinstance(node, ast.Attribute) and node.attr == "__mod__"]
    mods = [(func, outer) for node, func, outer in nodes
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)]
    assert [func for func, _ in mods] == ["_json_records"]
    assert not [node for _, outer in mods for node in outer if isinstance(node, LOOPS)]
    encoded = []
    for node, func, outer in nodes:
        if isinstance(node, ast.Name) and node.id == "encode_basestring":
            call = outer[-1]
            if ast.unparse(call.func) == "map":
                flagged = [ast.unparse(n.test) for n in outer if isinstance(n, ast.If)]
                column = ast.unparse(call.args[1])
                assert f"ESCAPE.search(''.join({column}))" in flagged, flagged
                encoded.append((func, f"map: {column}"))
            else:
                encoded.append((func, ast.unparse(call.args[0])))
    assert sorted(encoded) == [("_json_records", "key"), ("_json_records", "map: values"),
                               ("render_scalar", "str(x.cutoff)")]
    table = [(node, outer) for node, func, outer in nodes if func == "_table_text"]
    assert not [node for node, _ in table if isinstance(node, (ast.For, ast.While,
                                                                ast.GeneratorExp))]
    loops = {ast.unparse(node.iter) for node, _ in table if isinstance(node, ast.comprehension)}
    assert loops == {"zip(header, columns)", "cells"}, loops


def test_literals_go_through_the_shared_rational_reader():
    # no Fraction( in cli; parse_scalar_literal catches nothing, loops
    # once per term match, and reads its numbers with require_rational
    cli = _modules()["cli.py"]
    assert not [node.lineno for node in ast.walk(cli)
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "Fraction"]
    parse = next(node for node in cli.body
                 if isinstance(node, ast.FunctionDef) and node.name == "parse_scalar_literal")
    nodes = list(ast.walk(parse))
    assert not [node for node in nodes if isinstance(node, ast.Try)]
    loops = [node for node in nodes if isinstance(node, LOOPS)]
    assert [ast.unparse(node.test) for node in loops if isinstance(node, ast.While)] == [
        "pos < len(s)"] and len(loops) == 1
    calls = {ast.unparse(node.func) for node in nodes if isinstance(node, ast.Call)}
    assert {"_TERM.match", "require_rational"} <= calls


# the package's modules in import order: each imports only earlier ones
ORDER = ["errors", "fan", "chambers", "series", "wallcross", "novikov", "cli"]


def _relative_imports(tree):
    # (imported module, line) of every relative import, at any depth: from
    # .x import ... names x, from . import x, y names x and y
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            targets = [node.module] if node.module else [alias.name for alias in node.names]
            for target in targets:
                yield target.split(".")[0], node.lineno


def test_imports_run_in_one_direction():
    # an import inside a function counts too, so wallcross, for one, can
    # reach nothing of novikov
    modules = _modules()
    assert sorted(ORDER) == sorted(name[:-3] for name in modules if name != "__init__.py")
    later = [
        f"{name}:{line} imports {target}"
        for name, tree in modules.items() if name != "__init__.py"
        for target, line in _relative_imports(tree)
        if ORDER.index(target) >= ORDER.index(name[:-3])
    ]
    assert not later, f"imports against the module order: {later}"
