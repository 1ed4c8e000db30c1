"""End-to-end command line tests: schemas, exit codes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import opengw
from opengw import cli, errors, novikov, series, wallcross
from opengw.fan import EnergyValues, RelClass, builtin_fan
from opengw.wallcross import Ambient, chekanov_superpotential, clifford_superpotential

CP2 = {
    "n": 2,
    "extra_rays": [[1, 1]],
    "max_cones": [[0, 1], [0, 2], [1, 2]],
    "energies": {"beta_hat": "1", "gamma": ["1"], "H": ["4"]},
}

# the document of builtin_fan("f2_nonfano")
F2 = {
    "n": 2,
    "extra_rays": [[0, 1], [1, 2]],
    "max_cones": [[0, 1], [1, 3], [2, 3], [0, 2]],
}


@pytest.fixture
def cp2_file(tmp_path):
    path = tmp_path / "cp2.json"
    path.write_text(json.dumps(CP2))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_process(*argv):
    """The CLI in a fresh interpreter, so an escaping exception shows up as
    a traceback on stderr instead of failing the test run itself."""
    src = str(Path(opengw.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "opengw.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestParsing:
    def test_cp2_document(self, cp2_file):
        spec = cli.parse_fan_spec(cp2_file)
        assert (spec.n, spec.m) == (2, 1)
        assert spec.extra_rays == ((1, 1),)
        assert spec.max_cones == ((0, 1), (0, 2), (1, 2))
        assert spec.energies == EnergyValues(Fraction(1), (Fraction(1),), (Fraction(4),))

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({**CP2, "volume": 3}))
        with pytest.raises(cli.SchemaError):
            cli.parse_fan_spec(str(p))

    def test_nonprimitive_ray(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"n": 2, "extra_rays": [[2, 2]]}))
        with pytest.raises(cli.NonPrimitiveRay):
            cli.parse_fan_spec(str(p))

    def test_cone_arity(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"n": 2, "extra_rays": [[1, 1]], "max_cones": [[0, 1, 2]]}))
        with pytest.raises(cli.SchemaError):
            cli.parse_fan_spec(str(p))

    def test_float_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        doc = {"n": 2, "extra_rays": [[1, 1]], "energies": {"beta_hat": 0.5}}
        p.write_text(json.dumps(doc))
        with pytest.raises(cli.SchemaError):
            cli.parse_fan_spec(str(p))

    def test_parse_error_carries_position(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"n": 2,\n  "extra_rays": [[1, 1]!]}')
        with pytest.raises(cli.ParseError) as exc:
            cli.parse_fan_spec(str(p))
        assert "line 2" in str(exc.value)

    def test_scalar_literals(self):
        lit = cli.parse_scalar_literal
        assert lit("2") == novikov.constant(2)
        assert lit("T^1/2") == novikov.t_monomial(Fraction(1, 2))
        assert lit("T^-1") == novikov.t_monomial(-1)
        assert lit("1 - T + 2*T^3/2") == novikov.NovikovScalar.from_terms(
            [(0, 1), (1, -1), (Fraction(3, 2), 2)]
        )
        assert lit("-3/2*T^2") == novikov.t_monomial(2, Fraction(-3, 2))
        with pytest.raises(cli.ParseError):
            lit("T^")
        with pytest.raises(cli.ParseError):
            lit("")

    @pytest.mark.parametrize("text", ["*T", "-*T", "1+*T^2", "*T^2", "1 - * T"])
    def test_star_needs_a_coefficient(self, text):
        # these used to parse as if the * were not there
        with pytest.raises(cli.ParseError, match="no coefficient before"):
            cli.parse_scalar_literal(text)

    @pytest.mark.parametrize("text, want", [
        ("T", novikov.t_monomial(1)), ("-T", novikov.t_monomial(1, -1)),
        ("2*T^3/2", novikov.t_monomial(Fraction(3, 2), 2)), ("2T", novikov.t_monomial(1, 2)),
        ("-2*T", novikov.t_monomial(1, -2)),
    ])
    def test_coefficient_forms_kept(self, text, want):
        assert cli.parse_scalar_literal(text) == want


class TestValidate:
    def test_cp2_all_ok(self, cp2_file, capsys):
        code, out, _ = run(capsys, "validate", cp2_file)
        assert code == 0
        assert "fano       ok" in out and "overall    ok" in out

    def test_f2_fails_fano_only(self, tmp_path, capsys):
        p = tmp_path / "f2.json"
        p.write_text(json.dumps(F2))
        code, out, _ = run(capsys, "validate", str(p), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["smooth_ok"] and doc["complete_ok"] and not doc["fano_ok"]
        assert not doc["all_ok"]
        assert doc["diagnostics"]

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent/f.json")
        assert code == 2
        assert "ParseError" in err


class TestTheoremFans:
    """Commands that compute refuse a fan whose max_cones fail validate."""

    COMPUTE = [
        ["invariants"],
        ["superpotential", "--chamber", "minus", "--ambient", "compact"],
        ["glue", "--input", "SERIES", "--direction", "plus-to-minus", "--truncate", "2"],
        ["eval", "--point", "T,T", "--energies", '{"beta_hat": "1", "gamma": ["1"]}',
         "--chamber", "plus", "--ambient", "open"],
    ]

    @staticmethod
    def _argv(tmp_path, doc, command):
        fan_path, series_path = tmp_path / "fan.json", tmp_path / "series.json"
        fan_path.write_text(json.dumps(doc))
        series_path.write_text(json.dumps({"n": doc["n"], "m": len(doc["extra_rays"]),
                                           "terms": []}))
        argv = [str(series_path) if a == "SERIES" else a for a in command]
        return [argv[0], str(fan_path), *argv[1:]]

    @pytest.mark.parametrize("command", COMPUTE, ids=lambda c: c[0])
    @pytest.mark.parametrize("doc, failed", [
        (F2, "fano"),
        ({**CP2, "max_cones": [[0, 1], [0, 2]]}, "complete, fano"),
    ], ids=["f2_nonfano", "cp2-two-cones"])
    def test_failed_check_is_domain_error(self, tmp_path, capsys, doc, failed, command):
        # each used to print a table and exit 0; fano is not evaluated on
        # an incomplete fan, so it fails too
        code, out, err = run(capsys, *self._argv(tmp_path, doc, command))
        assert (code, out) == (1, "")
        assert err.split(":")[:2] == ["UnsupportedFan", f" fan fails {failed}"]

    @pytest.mark.parametrize("command", COMPUTE, ids=lambda c: c[0])
    def test_no_max_cones_is_accepted(self, tmp_path, capsys, command):
        # without max_cones there is nothing to validate: F_2's rays (and
        # CP^2's) compute as before
        for doc in ({"n": 2, "extra_rays": F2["extra_rays"]},
                    {"n": 2, "extra_rays": CP2["extra_rays"]}):
            code, out, err = run(capsys, *self._argv(tmp_path, doc, command))
            assert (code, err) == (0, "") and out


class TestInvariants:
    def test_cp2_table(self, cp2_file, capsys):
        code, out, _ = run(capsys, "invariants", cp2_file)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["class", "maslov", "n_beta"]
        assert len(lines) == 5
        assert any("H_1 - 2β̂ " in ln and ln.endswith(" 2") for ln in lines)

    def test_byte_determinism(self, cp2_file, capsys):
        _, first, _ = run(capsys, "invariants", cp2_file, "--format", "csv")
        _, second, _ = run(capsys, "invariants", cp2_file, "--format", "csv")
        assert first == second
        assert first.splitlines()[0] == "b,g_1,h_1,maslov,n_beta"

    def test_json_matches_api(self, cp2_file, capsys):
        code, out, _ = run(capsys, "invariants", cp2_file, "--format", "json")
        assert code == 0
        rows = json.loads(out)
        spec = builtin_fan("cpn", n=2)
        table = wallcross.invariant_table(chekanov_superpotential(spec, Ambient.COMPACT))
        assert [r["n_beta"] for r in rows] == [int(row.value) for row in table]
        assert [r["name"] for r in rows] == [row.name for row in table]

    def test_negative_p_is_domain_error(self, tmp_path, capsys):
        p = tmp_path / "neg.json"
        p.write_text(json.dumps({"n": 2, "extra_rays": [[-1, -2]]}))
        code, _, err = run(capsys, "invariants", str(p))
        assert code == 1
        assert "NegativePa" in err


class TestSuperpotential:
    def test_open_chekanov_single_row(self, cp2_file, capsys):
        code, out, _ = run(
            capsys, "superpotential", cp2_file, "--chamber", "minus", "--ambient", "open"
        )
        assert code == 0
        assert len(out.splitlines()) == 2  # header + one row

    def test_json_round_trip(self, cp2_file, capsys):
        code, out, _ = run(
            capsys, "superpotential", cp2_file, "--chamber", "plus",
            "--ambient", "compact", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        got = series.from_records(doc["n"], doc["m"], doc["terms"])
        spec = builtin_fan("cpn", n=2)
        assert got == clifford_superpotential(spec, Ambient.COMPACT).series

    def test_chamber_flag_required(self, cp2_file, capsys):
        code, _, err = run(capsys, "superpotential", cp2_file, "--ambient", "open")
        assert code == 2
        assert "--chamber" in err


def _json_reference(obj):
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def _series_reference(s):
    return _json_reference({"n": s.n, "m": s.m, "terms": series.to_records(s)})


def _table_reference(table):
    return _json_reference([
        {"name": row.name, "b": row.cls.b, "g": list(row.cls.g), "h": list(row.cls.h),
         "maslov": row.maslov, "n_beta": int(row.value)}
        for row in table
    ])


JSON_FANS = [
    builtin_fan("cpn", n=1), builtin_fan("cpn", n=2), builtin_fan("cpn", n=3),
    builtin_fan("cpn", n=4), builtin_fan("hirzebruch_f1"), builtin_fan("cp_product", n=3, r=1),
]


class TestJsonRender:
    """render_invariants, render_series and render_scalar write JSON without
    json.dumps; the bytes must equal json.dumps(..., indent=2,
    ensure_ascii=False)."""

    @pytest.mark.parametrize("spec", JSON_FANS, ids=lambda s: f"n{s.n}m{s.m}r{s.extra_rays}")
    @pytest.mark.parametrize("ambient", [Ambient.COMPACT, Ambient.OPEN])
    def test_tables_and_superpotentials(self, spec, ambient):
        for w in (chekanov_superpotential(spec, ambient), clifford_superpotential(spec, ambient)):
            table = wallcross.invariant_table(w)
            if ambient is Ambient.OPEN and w.chamber is wallcross.Chart.CHEKANOV:
                assert [row.name for row in table] == ["β̂"]
            assert cli.render_invariants(table, spec, "json") == _table_reference(table)
            assert cli.render_series(w.series, "json") == _series_reference(w.series)

    @pytest.mark.parametrize("n, m", [(1, 0), (1, 2), (3, 0), (2, 1)])
    def test_edge_shapes_and_negative_ints(self, n, m):
        # n = 1 gives empty g lists, m = 0 empty h lists; negative
        # coordinates, numerators and counts, non-ASCII names
        classes = [
            RelClass(-3, tuple(range(-1, n - 2)), tuple(-2 * a for a in range(m))),
            RelClass(5, (0,) * (n - 1), (1,) * m),
            RelClass(0, (-7,) * (n - 1), (-1,) * m),
        ]
        coeffs = [Fraction(-5, 3), Fraction(12), Fraction(-1)]
        s = series.ClassSeries(n, m, dict(zip(classes, coeffs)))
        assert cli.render_series(s, "json") == _series_reference(s)
        empty = series.ClassSeries(n, m)
        assert cli.render_series(empty, "json") == _series_reference(empty)
        rows = tuple(
            wallcross.InvariantRow(c, 2 - i, Fraction(-i), name)
            for i, (c, name) in enumerate(zip(classes, ["β̂ - γ_1", "H_1 \"q\"", "\u00e9\t\x01"]))
        )
        spec = builtin_fan("cpn", n=n)
        for table in (wallcross.InvariantTable(rows), wallcross.InvariantTable(())):
            assert cli.render_invariants(table, spec, "json") == _table_reference(table)
        # a count that is not an integer is refused, never rounded to 0
        half = rows + (wallcross.InvariantRow(classes[0], 2, Fraction(-1, 2), "x"),)
        for fmt in ("json", "csv", "table"):
            with pytest.raises(errors.NonIntegerInvariant,
                               match=r"^count for x is -1/2, not an integer$"):
                cli.render_invariants(wallcross.InvariantTable(half), spec, fmt)

    @pytest.mark.parametrize("spec", [
        builtin_fan("cpn", n=8), builtin_fan("cp_product", n=5, r=2),
    ], ids=["cp8", "cp2xcp3"])
    def test_large_compact_tables(self, spec):
        w = chekanov_superpotential(spec, Ambient.COMPACT)
        table = wallcross.invariant_table(w)
        assert cli.render_invariants(table, spec, "json") == _table_reference(table)
        assert cli.render_series(w.series, "json") == _series_reference(w.series)

    def test_glued_series(self):
        # fractional coefficients and negative coordinates: the CP^3
        # Clifford series divided across the wall at trunc 6
        spec = builtin_fan("cpn", n=3)
        s = clifford_superpotential(spec, Ambient.COMPACT).series
        s = s + series.monomial(3, 1, RelClass(2, (1, -1), (0,)), Fraction(-2, 3))
        gd = wallcross.wall_crossing_factor(spec, wallcross.Direction.MINUS_TO_PLUS, 6)
        glued = wallcross.apply_gluing(spec, s, gd)
        assert any(q.denominator > 1 for _, q in glued.items())
        assert cli.render_series(glued, "json") == _series_reference(glued)

    def test_documents_are_whole(self):
        # the brackets, the wrapper and the final newline sit on the first
        # and last records: each text is one whole JSON document as json
        # lays it out
        texts = []
        for spec in (builtin_fan("cpn", n=8), builtin_fan("cp_product", n=5, r=2)):
            table = wallcross.invariant_table(chekanov_superpotential(spec, Ambient.COMPACT))
            texts.append(cli.render_invariants(table, spec, "json"))
        spec = builtin_fan("cpn", n=3)
        gd = wallcross.wall_crossing_factor(spec, wallcross.Direction.PLUS_TO_MINUS, 6)
        texts.append(cli.render_series(
            wallcross.apply_gluing(spec, clifford_superpotential(spec, Ambient.COMPACT).series, gd),
            "json"))
        texts.append(cli.render_series(series.ClassSeries(3, 1), "json"))
        texts.append(cli.render_invariants(wallcross.InvariantTable(()), spec, "json"))
        for text in texts:
            assert text == _json_reference(json.loads(text))
        assert texts[-2:] == ['{\n  "n": 3,\n  "m": 1,\n  "terms": []\n}\n', "[]\n"]

    @pytest.mark.parametrize("n, m", [(1, 0), (3, 2)])
    def test_names_with_braces_quotes_and_non_ascii(self, n, m):
        names = ["{}", "{0}", "}{", "{{x}}", 'H_1 "q" {', "γ_1 – β̂ é", "\\{\n}", ""]
        rows = tuple(
            wallcross.InvariantRow(
                RelClass(-i, tuple(-j - i for j in range(n - 1)), tuple(i - j for j in range(m))),
                2 - 3 * i, Fraction(-7 * i), name)
            for i, name in enumerate(names)
        )
        table = wallcross.InvariantTable(rows)
        spec = builtin_fan("cpn", n=n)
        assert cli.render_invariants(table, spec, "json") == _table_reference(table)

    def test_keys_with_braces(self):
        # only the template's own text is brace-escaped
        for depth in (0, 1, 2):
            # an array field is a tuple of int columns, one per entry
            columns = [("{k}", ["{v}", "}"]), ("a}{", [-1, 2]), ("l{", ([3, 5], [-4, 6])),
                       ("e}", ())]
            want = [{"{k}": s, "a}{": x, "l{": list(t), "e}": []}
                    for s, x, t in zip(["{v}", "}"], [-1, 2], [(3, -4), (5, 6)])]
            text = json.dumps(want, indent=2, ensure_ascii=False)
            assert cli._json_records(columns, depth) == text.replace("\n", "\n" + "  " * depth)

    def test_keys_with_percent_signs(self):
        # the template is a %-template: a key's own % is escaped
        columns = [("%s", ["%d", "100%"]), ("%%", [7, -8]), ("a%d", ([1, 2],))]
        want = [{"%s": s, "%%": x, "a%d": [y]} for s, x, y in zip(["%d", "100%"], [7, -8], [1, 2])]
        assert cli._json_records(columns, 0) == json.dumps(want, indent=2, ensure_ascii=False)

    @pytest.mark.parametrize("cutoff", [None, Fraction(7, 2), Fraction(-3)])
    @pytest.mark.parametrize(
        "terms",
        [[], [(Fraction(0), Fraction(1))],
         [(Fraction(-5, 3), Fraction(-1, 4)), (Fraction(-1), Fraction(12)),
          (Fraction(1, 2), Fraction(-7)), (Fraction(3), Fraction(5, 6))]],
        ids=["empty", "one", "mixed"],
    )
    def test_scalars(self, terms, cutoff):
        # empty terms, cutoff None and set, negative and fractional
        # exponents and coefficients
        x = novikov.NovikovScalar.from_terms(terms, cutoff=cutoff)
        want = {
            "terms": [{"exponent": str(e), "coefficient": str(c)} for e, c in x.terms],
            "cutoff": None if x.cutoff is None else str(x.cutoff),
        }
        assert cli.render_scalar(x, "json") == _json_reference(want)


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_cp8_invariants_are_deterministic_across_processes(tmp_path, monkeypatch, fmt):
    # rows come from packed buckets and per-call name pieces; two fresh
    # interpreters with different string hash seeds print the same bytes
    path = tmp_path / "cp8.json"
    path.write_text(json.dumps({"n": 8, "extra_rays": [[1] * 8]}))
    outputs = []
    for seed in ("0", "1"):
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        outputs.append(run_process("invariants", str(path), "--format", fmt))
    assert outputs[0] == outputs[1]
    code, out, err = outputs[0]
    assert (code, err) == (0, "")
    rows = len(json.loads(out)) if fmt == "json" else len(out.splitlines()) - 1
    assert rows == 6436


def test_invariants_work_count(tmp_path, capsys, monkeypatch):
    # one opengw invariants of CP^8 as JSON reads the table straight from
    # the packed kernel result: no class is read back from a key and no
    # InvariantRow is made, so the only RelClasses are the ten of the
    # factor and the parts (6,436 rows and 6,447 RelClasses when every row
    # was an object)
    path = tmp_path / "cp8.json"
    path.write_text(json.dumps({"n": 8, "extra_rays": [[1] * 8]}))
    counts = {"row": 0, "class": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(wallcross.InvariantRow, "__init__",
                        counted("row", wallcross.InvariantRow.__init__))
    monkeypatch.setattr(RelClass, "__init__", counted("class", RelClass.__init__))
    code, out, err = run(capsys, "invariants", str(path), "--format", "json")
    assert (code, err) == (0, "")
    assert counts["row"] == 0 and counts["class"] <= 10, counts
    monkeypatch.undo()
    spec = builtin_fan("cpn", n=8)
    table = wallcross.invariant_table(chekanov_superpotential(spec, Ambient.COMPACT))
    assert len(table) == 6436
    assert out == _table_reference(table)


def test_glue_work_count(tmp_path, capsys, monkeypatch):
    # one opengw glue of the CP^2 x CP^3 Chekanov series back across the
    # wall: the 51 records are parsed straight into packed keys, grouped,
    # graded and summed on keys, and the sum is rendered from its keys, so
    # no class is read back from a key.  The gluing factor is built on its
    # packer's keys too, so the op builds no class, Fraction or pack at all
    # (59, 161 and 63 when the records were parsed into objects; 5, 10 and
    # 5, all the factor's, when the factor went through the constructor)
    spec = builtin_fan("cp_product", n=5, r=2)
    fan_path, src = tmp_path / "fan.json", tmp_path / "chekanov.json"
    fan_path.write_text(json.dumps({"n": 5, "extra_rays": [list(r) for r in spec.extra_rays]}))
    w = chekanov_superpotential(spec, Ambient.COMPACT).series
    src.write_text(cli.render_series(w, "json"))
    calls = {"pack": 0, "RelClass": 0, "Fraction": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(series._Packer, "pack", counted("pack", series._Packer.pack))
    monkeypatch.setattr(RelClass, "__init__", counted("RelClass", RelClass.__init__))
    monkeypatch.setattr(Fraction, "__new__", counted("Fraction", Fraction.__new__))
    code, out, err = run(capsys, "glue", str(fan_path), "--input", str(src),
                         "--direction", "minus-to-plus", "--truncate", "16", "--format", "json")
    monkeypatch.undo()
    assert (code, err) == (0, "") and calls == {"pack": 0, "RelClass": 0, "Fraction": 0}, calls
    want = clifford_superpotential(spec, Ambient.COMPACT).series
    assert out == _series_reference(want)


class TestGlue:
    def test_round_trip_through_files(self, cp2_file, tmp_path, capsys):
        code, out, _ = run(
            capsys, "superpotential", cp2_file, "--chamber", "plus",
            "--ambient", "compact", "--format", "json",
        )
        assert code == 0
        src = tmp_path / "clifford.json"
        src.write_text(out)
        code, out, _ = run(
            capsys, "glue", cp2_file, "--input", str(src),
            "--direction", "plus-to-minus", "--truncate", "8", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        got = series.from_records(doc["n"], doc["m"], doc["terms"])
        spec = builtin_fan("cpn", n=2)
        assert got == chekanov_superpotential(spec, Ambient.COMPACT).series

    def test_shape_mismatch(self, cp2_file, tmp_path, capsys):
        src = tmp_path / "series.json"
        src.write_text(json.dumps({"n": 3, "m": 1, "terms": []}))
        code, _, err = run(
            capsys, "glue", cp2_file, "--input", str(src),
            "--direction", "plus-to-minus", "--truncate", "4",
        )
        assert code == 1
        assert "DimensionMismatch" in err

    def test_bad_record_key(self, cp2_file, tmp_path, capsys):
        src = tmp_path / "series.json"
        src.write_text(
            json.dumps({"n": 2, "m": 1, "terms": [{"b": 1, "g": [0], "h": [0], "w": 1}]})
        )
        code, _, err = run(
            capsys, "glue", cp2_file, "--input", str(src),
            "--direction", "minus-to-plus", "--truncate", "4",
        )
        assert code == 2
        assert "SchemaError" in err

    @pytest.mark.parametrize(
        "field,value",
        [("b", 1.9), ("b", True), ("g", [0.5]), ("coeff_numerator", "1"), ("coeff_denominator", 0)],
    )
    def test_bad_record_value_is_schema_error(self, cp2_file, tmp_path, field, value):
        # a float must not be rounded and a zero denominator must not crash
        rec = {"b": 1, "g": [0], "h": [0], "coeff_numerator": 1, "coeff_denominator": 1}
        rec[field] = value
        src = tmp_path / "series.json"
        src.write_text(json.dumps({"n": 2, "m": 1, "terms": [rec]}))
        code, out, err = run_process(
            "glue", cp2_file, "--input", str(src),
            "--direction", "minus-to-plus", "--truncate", "4",
        )
        assert code == 2
        assert out == ""
        assert "SchemaError" in err
        assert "Traceback" not in err


class TestClassify:
    def test_wall_component(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "3", "--lambda", "-1,2", "--q2", "0")
        assert code == 0
        assert out == "Wall(1)\n"

    def test_chambers(self, capsys):
        assert run(capsys, "classify", "--n", "2", "--lambda", "1", "--q2", "1/2")[1] == "BPlus\n"
        assert run(capsys, "classify", "--n", "2", "--lambda", "1", "--q2", "-1/2")[1] == "BMinus\n"
        assert run(capsys, "classify", "--n", "2", "--lambda", "0", "--q2", "0")[1] == "Discriminant\n"

    def test_outside_base(self, capsys):
        code, _, err = run(capsys, "classify", "--n", "2", "--lambda", "1", "--q2", "-2")
        assert code == 1
        assert "OutsideBase" in err

    def test_bad_rational(self, capsys):
        code, _, err = run(capsys, "classify", "--n", "2", "--lambda", "x", "--q2", "0")
        assert code == 2
        assert "ParseError" in err

    def test_n_below_one(self, capsys):
        code, out, err = run(capsys, "classify", "--n", "0", "--lambda=", "--q2", "0")
        assert (code, out) == (1, "")
        assert err.startswith("BadParams: n must be >= 1")


class TestMonodromy:
    def test_shear_matrix(self, tmp_path, capsys):
        p = tmp_path / "rays.json"
        p.write_text(json.dumps({"rays": [[1, 1], [0, 1]]}))
        code, out, _ = run(capsys, "monodromy", "--rays", str(p), "--i", "0", "--j", "1")
        assert code == 0
        assert out == " 1  -1\n 0   1\n"

    def test_json_format(self, tmp_path, capsys):
        p = tmp_path / "rays.json"
        p.write_text(json.dumps({"rays": [[0, 0, 1], [1, 0, 1], [0, 1, 1]]}))
        code, out, _ = run(
            capsys, "monodromy", "--rays", str(p), "--i", "0", "--j", "2",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == [[1, 0, 0], [0, 1, 1], [0, 0, 1]]

    def test_index_error(self, tmp_path, capsys):
        p = tmp_path / "rays.json"
        p.write_text(json.dumps({"rays": [[1, 1], [0, 1]]}))
        code, _, err = run(capsys, "monodromy", "--rays", str(p), "--i", "0", "--j", "5")
        assert code == 1
        assert "IndexOutOfRange" in err


class TestEval:
    def test_single_disk(self, tmp_path, capsys):
        p = tmp_path / "c1.json"
        p.write_text(json.dumps({"n": 1, "extra_rays": [], "energies": {"beta_hat": "1"}}))
        code, out, _ = run(
            capsys, "eval", str(p), "--ambient", "open", "--point", "T^1/2"
        )
        assert code == 0
        assert out == "T^1/2\n"

    def test_matches_api(self, cp2_file, capsys):
        code, out, _ = run(capsys, "eval", cp2_file, "--point", "T^1/4,T^1/3")
        assert code == 0
        spec = builtin_fan("cpn", n=2)
        ea = novikov.assign_energies(spec, {"beta_hat": 1, "gamma": [1], "H": [4]})
        w = chekanov_superpotential(spec, Ambient.COMPACT)
        pt = [novikov.t_monomial(Fraction(1, 4)), novikov.t_monomial(Fraction(1, 3))]
        assert out.strip() == str(novikov.evaluate(w.series, ea, pt))

    def test_energies_override(self, cp2_file, capsys):
        code, out, _ = run(
            capsys, "eval", cp2_file, "--point", "T,T",
            "--energies", '{"beta_hat": "2", "gamma": ["1"], "H": ["6"]}',
            "--chamber", "plus",
        )
        assert code == 0
        spec = builtin_fan("cpn", n=2)
        ea = novikov.assign_energies(spec, {"beta_hat": 2, "gamma": [1], "H": [6]})
        w = clifford_superpotential(spec, Ambient.COMPACT)
        pt = [novikov.t_monomial(1), novikov.t_monomial(1)]
        assert out.strip() == str(novikov.evaluate(w.series, ea, pt))

    def test_star_without_coefficient_rejected(self, cp2_file, capsys):
        code, out, err = run(capsys, "eval", cp2_file, "--point", "*T,T")
        assert (code, out) == (2, "")
        assert "ParseError" in err

    def test_zero_point_rejected(self, cp2_file, capsys):
        code, _, err = run(capsys, "eval", cp2_file, "--point", "0,T")
        assert code == 1
        assert "ZeroCoordinate" in err

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: scalar_inverse raises a raw ValueError for an exact "
        "multi-term coordinate to a negative power; the eval benchmark workload pins "
        "that message as its counted failure",
    )
    def test_multi_term_point_is_domain_error(self, cp2_file):
        code, _, err = run_process("eval", cp2_file, "--point", "1+T,T")
        assert code in (1, 2)
        assert "Traceback" not in err


class TestOracle:
    def test_values(self, capsys):
        assert run(capsys, "oracle", "cpn", "--n", "3", "--k", "0,0")[1] == "6\n"
        assert run(capsys, "oracle", "cpn", "--n", "3", "--k", "1,1")[1] == "0\n"
        assert run(capsys, "oracle", "cpn", "--n", "4", "--beta-hat")[1] == "1\n"
        assert run(capsys, "oracle", "f1", "--branch", "H1", "--k", "0")[1] == "2\n"
        assert (
            run(capsys, "oracle", "cp-product", "--n", "2", "--r", "1", "--branch", "H2", "--k", "1")[1]
            == "1\n"
        )

    def test_negative_k_value(self, capsys):
        code, out, _ = run(capsys, "oracle", "f1", "--branch", "H1", "--k", "-1")
        assert code == 0
        assert out == "1\n"

    def test_unknown_family_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "oracle", "quadric", "--n", "3")
        assert code == 2

    def test_fractional_k_rejected(self):
        # 1/2 must not be rounded to 0, which would print the k = (0, 0) value 6
        code, out, err = run_process("oracle", "cpn", "--n", "3", "--k", "1/2,0")
        assert code == 2
        assert out == ""
        assert "ParseError" in err
        assert "Traceback" not in err

    def test_missing_params(self, capsys):
        code, _, err = run(capsys, "oracle", "cpn", "--k", "0,0")
        assert code == 1
        assert "BadParams" in err


class TestParserCache:
    """argv is read against the command table by one loop; no call keeps
    state that a later call could see."""

    def test_calls_in_a_row_match_fresh_interpreters(self, cp2_file, capsys):
        table = repr(cli.COMMANDS)
        calls = [
            ("invariants", cp2_file, "--format", "json"),
            ("classify", "--n", "3", "--lambda", "-1,2", "--q2", "0"),
            ("superpotential", cp2_file, "--chamber", "plus"),
            ("eval", cp2_file, "--point", "-2*T^1/2,T", "--format", "csv"),
            ("glue", cp2_file, "--truncate", "x"),
            ("validate", cp2_file),
            ("oracle", "cpn", "--n", "3", "--beta-hat"),
            ("oracle", "cpn", "--n", "3", "--k", "0,0"),
            ("invariants", cp2_file, "--format", "json"),
            ("validate", "-h"),
        ]
        for argv in calls:
            assert run(capsys, *argv) == run_process(*argv)
        assert repr(cli.COMMANDS) == table

    def test_value_flags_derived_from_parser(self):
        value_flags = {name for _, _, _, flags in cli.COMMANDS.values()
                       for name, spec in flags.items() if spec[1] is not bool}
        assert value_flags == {
            "--ambient", "--branch", "--chamber", "--direction", "--energies",
            "--format", "--i", "--input", "--j", "--k", "--lambda", "--n", "--point",
            "--q2", "--r", "--rays", "--truncate",
        }
        assert {spec[1] for _, _, _, flags in cli.COMMANDS.values()
                for spec in flags.values()} == {int, str, bool}


def test_unknown_subcommand(capsys):
    assert run(capsys, "frobnicate")[0] == 2


@pytest.mark.parametrize("argv", [
    ("classify", "--n=--", "--q2", "0"),
    ("oracle", "cpn", "--k=--"),
    ("eval", "{cp2}", "--point", "T,T", "--energies=--"),
])
def test_double_dash_value_is_usage_error(capsys, cp2_file, argv):
    # "--" is no int, and no rational list or JSON document either
    code, out, _ = run(capsys, *(a.format(cp2=cp2_file) for a in argv))
    assert (code, out) == (2, "")


# the argv grammar: (argv, exit code, stdout fragment, or None for an empty
# stdout, stderr fragment); {cp2} is the CP^2 fan file, whose text is stdin
GRAMMAR = [
    # a value flag takes the next token as it stands
    (("classify", "--n", "3", "--lambda", "-1,2", "--q2", "0"), 0, "Wall(1)", ""),
    (("oracle", "f1", "--branch", "H1", "--k", "-1"), 0, "1\n", ""),
    (("eval", "{cp2}", "--point", "-2*T^1/2,T", "--format", "csv"), 0, "exponent,coefficient", ""),
    (("classify", "--n", "3", "--lambda", "-", "--q2", "0"), 2, None, "ParseError: "),
    # --flag=value, an empty value too
    (("classify", "--n=1", "--lambda=", "--q2=1/2"), 0, "BPlus", ""),
    (("monodromy", "--rays={rays}", "--i=0", "--j=1", "--format=csv"), 0, "c_1,c_2", ""),
    (("invariants", "{cp2}", "--format="), 2, None, "argument --format: invalid choice: ''"),
    # a value that starts with --, and --flag=-- for an int flag
    (("glue", "{cp2}", "--input", "--direction", "plus-to-minus", "--truncate", "4"), 2, None,
     "argument --input: expected one argument"),
    (("classify", "--n", "2", "--q2", "--lambda"), 2, None, "argument --q2: expected one argument"),
    (("glue", "{cp2}", "--input", "{cp2}", "--direction", "plus-to-minus", "--truncate=--"), 2,
     None, "argument --truncate: invalid int value: '--'"),
    (("eval", "{cp2}", "--point"), 2, None, "argument --point: expected one argument"),
    # a lone -- ends the options; - is a file name (stdin)
    (("validate", "--format", "csv", "--", "{cp2}"), 0, "fano,ok", ""),
    (("validate", "--", "--format"), 2, None, "ParseError: cannot read --format"),
    (("validate", "-"), 0, "overall    ok", ""),
    (("superpotential", "-", "--chamber", "minus", "--ambient", "open"), 0, "β̂", ""),
    # a repeated flag keeps the last value
    (("validate", "{cp2}", "--format", "json", "--format", "csv"), 0, "check,result", ""),
    (("invariants", "{cp2}", "--chamber", "plus", "--chamber", "minus", "--format", "csv"), 0,
     "b,g_1,h_1,maslov,n_beta", ""),
    # usage errors: a missing required flag, a bad choice, a non-int value,
    # an unknown flag (no abbreviations) or subcommand, a wrong positional
    # count, a value given to --beta-hat
    (("superpotential", "{cp2}", "--ambient", "open"), 2, None,
     "the following arguments are required: --chamber"),
    (("monodromy", "--i", "0"), 2, None, "the following arguments are required: --rays, --j"),
    (("invariants", "{cp2}", "--ambient", "closed"), 2, None,
     "argument --ambient: invalid choice: 'closed' (choose from 'compact', 'open')"),
    (("oracle", "quadric", "--n", "3"), 2, None, "argument family: invalid choice: 'quadric'"),
    (("monodromy", "--rays", "{rays}", "--i", "0", "--j", "1.5"), 2, None,
     "argument --j: invalid int value: '1.5'"),
    (("glue", "{cp2}", "--input", "{cp2}", "--dir", "plus-to-minus", "--truncate", "4"), 2, None,
     "unrecognized arguments: --dir"),
    (("eval", "{cp2}", "--point", "T,T", "-x"), 2, None, "unrecognized arguments: -x"),
    (("frobnicate", "{cp2}"), 2, None, "argument command: invalid choice: 'frobnicate'"),
    ((), 2, None, "the following arguments are required: command"),
    (("invariants",), 2, None, "the following arguments are required: file"),
    (("validate", "{cp2}", "{cp2}"), 2, None, "unrecognized arguments: "),
    (("classify", "--n", "2", "--q2", "0", "extra"), 2, None, "unrecognized arguments: extra"),
    (("oracle",), 2, None, "the following arguments are required: family"),
    (("oracle", "cpn", "--n", "3", "--beta-hat=1"), 2, None,
     "argument --beta-hat: ignored explicit argument '1'"),
    # -h and --help print help to stdout and exit 0, wherever they stand
    (("-h",), 0, "usage: opengw [-h] COMMAND ...", ""),
    (("--help", "glue"), 0, "glue            apply the wall-crossing map", ""),
    (("glue", "{cp2}", "--help"), 0, "usage: opengw glue [-h] --input INPUT", ""),
    (("oracle", "-h", "--n", "x"), 0, "--beta-hat", ""),
]


@pytest.mark.parametrize("argv, code, out_part, err_part", GRAMMAR,
                         ids=[" ".join(row[0]) or "(empty)" for row in GRAMMAR])
def test_argv_grammar(tmp_path, cp2_file, capsys, monkeypatch, argv, code, out_part, err_part):
    rays = tmp_path / "rays.json"
    rays.write_text(json.dumps({"rays": [[1, 1], [0, 1]]}))
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(CP2)))
    got = run(capsys, *(a.format(cp2=cp2_file, rays=rays) for a in argv))
    assert got[0] == code, got
    assert (got[1] == "") if out_part is None else (out_part in got[1]), got
    assert err_part in got[2]
    if code == 0:
        assert got[2] == ""
    elif err_part and "Error: " not in err_part:
        # a usage error: the usage line, then the error line
        usage, error, rest = got[2].split("\n", 2)
        assert usage.startswith("usage: opengw") and error.startswith("opengw") and not rest
        assert ": error: " in error


# fuzzing: near-valid fan and series documents with one part corrupted

SMALL = st.integers(-2, 3)
JUNK = st.one_of(
    st.none(), st.booleans(), st.floats(), st.integers(-10**6, 10**6),
    st.sampled_from(["", "x", "1/2", "0.1", "1/0", "[1]"]),
    st.lists(SMALL, max_size=3), st.dictionaries(st.sampled_from(["n", "b", "q"]), SMALL),
)
RATIONAL = st.one_of(st.integers(1, 4), st.sampled_from(["1/2", "0.1", "3"]))


@st.composite
def corrupted(draw, doc: dict):
    """doc, doc with one key dropped, replaced by junk or added, or junk instead."""
    how = draw(st.sampled_from(["keep"] * 6 + ["drop", "junk", "add", "whole"]))
    if how == "whole":
        return draw(JUNK)
    doc = dict(doc)
    if how == "add":
        doc[draw(st.sampled_from(["extra", "N", "beta_hat"]))] = draw(JUNK)
    elif how != "keep" and doc:
        key = draw(st.sampled_from(sorted(doc)))
        if how == "drop":
            del doc[key]
        else:
            doc[key] = draw(JUNK)
    return doc


@st.composite
def documents(draw):
    """A fan document and a series document of the same shape, either corrupted."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    ray = st.lists(st.integers(-1, 1), min_size=n, max_size=n)
    fan = {"n": n, "extra_rays": draw(st.lists(ray, min_size=m, max_size=m))}
    if draw(st.booleans()):
        cone = st.lists(st.integers(-1, n + m), min_size=n, max_size=n)
        fan["max_cones"] = draw(st.lists(cone, max_size=6))
    if draw(st.booleans()):
        energies = {"beta_hat": draw(RATIONAL), "gamma": draw(st.lists(RATIONAL, max_size=3))}
        if draw(st.booleans()):
            energies["H"] = draw(st.lists(RATIONAL, max_size=3))
        fan["energies"] = draw(corrupted(energies))
    record = st.fixed_dictionaries({
        "b": SMALL,
        "g": st.lists(SMALL, min_size=n - 1, max_size=n - 1),
        "h": st.lists(SMALL, min_size=m, max_size=m),
        "coeff_numerator": SMALL,
        "coeff_denominator": st.integers(-1, 3),
    })
    terms = [draw(corrupted(r)) for r in draw(st.lists(record, max_size=3))]
    series_doc = {"n": n, "m": m, "terms": terms}
    return draw(corrupted(fan)), draw(corrupted(series_doc))


def run_quiet(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@given(docs=documents(), trunc=st.integers(-1, 4),
       direction=st.sampled_from(["plus-to-minus", "minus-to-plus"]))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_documents_fuzz_exit_cleanly(tmp_path_factory, docs, trunc, direction):
    # every document ends in exit 0, 1 or 2, never an escaping exception
    tmp = tmp_path_factory.mktemp("fuzz")
    fan_path, series_path = tmp / "fan.json", tmp / "series.json"
    fan_path.write_text(json.dumps(docs[0]))
    series_path.write_text(json.dumps(docs[1]))
    for argv in (
        ("validate", str(fan_path)),
        ("glue", str(fan_path), "--input", str(series_path), "--direction", direction,
         "--truncate", str(trunc)),
    ):
        code, out, err = run_quiet(*argv)
        assert code in (0, 1, 2)
        assert (code == 0) == (err == "") and (code == 0 or out == "")


# fuzzing: junk, near-valid and valid flag values

def flag_values(valid):
    """A flag value drawn from valid, from junk, or valid with junk spliced in."""
    junk = st.sampled_from(["", " ", "x", "-", "--", "1/0", "0.1", "1e3", "-1/2", "True",
                            "[1]", ",", "1,,2", "*", "٣", "2 2"])
    return st.one_of(valid, junk, st.tuples(valid, junk).map("".join))


INT_TEXT = st.integers(-3, 8).map(str)
RATIONAL_TEXT = st.one_of(INT_TEXT, st.sampled_from(["1/2", "-2/3", "0.25", "-1"]))
RATIONAL_LIST = st.lists(RATIONAL_TEXT, max_size=4).map(",".join)
ENERGIES = st.one_of(
    corrupted({"beta_hat": "1", "gamma": ["1"], "H": ["4"]}).map(json.dumps),
    st.fixed_dictionaries({"beta_hat": RATIONAL, "gamma": st.lists(RATIONAL, max_size=2),
                           "H": st.lists(RATIONAL, max_size=2)}).map(json.dumps),
    st.sampled_from(["{", "[]", "null", "1", '{"beta_hat": 1}']),
)
# one-term coordinates only: an exact multi-term coordinate to a negative
# power still raises the ValueError pinned by the eval benchmark workload
ONE_TERM_POINT = st.lists(
    st.sampled_from(["T", "-T^1/2", "2*T^-1/3", "3/2", "T^0", "0", "x", "T^", "*T", ""]),
    min_size=1, max_size=3,
).map(",".join)


@st.composite
def flag_argvs(draw, cp2_path):
    """classify, oracle or eval with each value flag present or not."""
    def flags(**valid):
        argv = []
        for name, v in valid.items():
            if draw(st.booleans()):
                value = draw(flag_values(v))
                argv += [f"--{name}={value}"] if draw(st.booleans()) else [f"--{name}", value]
        return argv

    command = draw(st.sampled_from(["classify", "oracle", "eval"]))
    if command == "classify":
        return ["classify", *flags(n=INT_TEXT, **{"lambda": RATIONAL_LIST}, q2=RATIONAL_TEXT)]
    if command == "oracle":
        family = draw(st.sampled_from(["cpn", "cp-product", "f1"]))
        beta_hat = ["--beta-hat"] if draw(st.booleans()) else []
        return ["oracle", family, *flags(n=INT_TEXT, r=INT_TEXT, k=RATIONAL_LIST,
                                         branch=st.sampled_from(["H1", "H2"])), *beta_hat]
    return ["eval", cp2_path, f"--point={draw(ONE_TERM_POINT)}",
            f"--chamber={draw(st.sampled_from(['plus', 'minus']))}",
            *flags(energies=ENERGIES)]


@given(data=st.data())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_flags_fuzz_exit_cleanly(tmp_path_factory, data):
    # every argv ends in exit 0, 1 or 2, with stderr empty exactly on exit 0
    path = tmp_path_factory.getbasetemp() / "fuzz-cp2.json"
    if not path.exists():
        path.write_text(json.dumps(CP2))
    code, out, err = run_quiet(*data.draw(flag_argvs(str(path)), label="argv"))
    assert code in (0, 1, 2)
    assert (code == 0) == (err == "") and (code == 0 or out == "")
