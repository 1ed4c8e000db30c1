"""Command-line surface: fan ingestion, subcommands, deterministic output.

Subcommands: validate, superpotential, invariants, glue, classify,
monodromy, eval, oracle.  Input fans are JSON documents; all rationals in
files and flags are exact, written as integers or "p/q" strings, never
floats.  Output (table, csv, or json) is byte-deterministic for identical
inputs.  Exit codes: 0 success, 1 domain error, 2 usage or parse error.

eval of the compact Chekanov superpotential (--chamber minus, --ambient
compact, the defaults) goes through wallcross.evaluate_chekanov.  At a
monomial point (n coordinates, each one exact term c*T^e, every p_a >= 0
and sphere energies given) it evaluates beta_hat + sum_a beta'_a f^{p_a}
in factored form.  Any other point, fan or chamber evaluates the expanded
series with novikov.evaluate, which is also the factored path's oracle:
the factored form needs x_k**-1 for each gamma_k even where no expanded
term does, and a cutoff would spread differently through f^{p_a}.  Both
give byte-identical output wherever the factored path applies.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring

from .chambers import ChamberPoint, CYFanRays, classify_point, monodromy_matrix
from .errors import (
    DimensionMismatch,
    DomainError,
    NonPrimitiveRay,
    ParseError,
    SchemaError,
)
from .fan import (
    FanSpec,
    _class_names,
    _fraction_texts,
    _fractions,
    _require_keys,
    _require_rationals,
    _require_seq,
    parse_energies,
    require_int,
    require_ints,
    require_rational,
    validate_fan,
)
from .novikov import NovikovScalar, assign_energies, evaluate
from .series import ClassSeries, from_records
from .wallcross import (
    Ambient,
    Chart,
    Direction,
    InvariantTable,
    apply_gluing,
    chekanov_superpotential,
    clifford_superpotential,
    closed_form_invariant,
    evaluate_chekanov,
    invariant_table,
    wall_crossing_factor,
)

CHAMBERS = {"plus": Chart.CLIFFORD, "minus": Chart.CHEKANOV}
AMBIENTS = {"open": Ambient.OPEN, "compact": Ambient.COMPACT}
DIRECTIONS = {
    "plus-to-minus": Direction.PLUS_TO_MINUS,
    "minus-to-plus": Direction.MINUS_TO_PLUS,
}


# input parsing

def _load_json(source: str):
    try:
        if source == "-":
            text = sys.stdin.read()
        else:
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {source}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{source}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def parse_fan_spec(source: str) -> FanSpec:
    """Read a fan document from a path (or '-' for stdin).

    Schema errors (unknown keys, wrong arity) and JSON syntax errors are
    usage-level; a syntactically fine ray that is not primitive is a domain
    error.
    """
    doc = _load_json(source)
    _require_keys(
        doc, {"n", "extra_rays", "max_cones", "energies"}, {"n", "extra_rays"}, "fan spec",
        SchemaError,
    )
    n = require_int(doc["n"], "n", SchemaError)
    if n < 1:
        raise SchemaError(f"n must be >= 1, got {n}")
    rays = tuple(
        require_ints(r, f"extra_rays[{i}]", n, SchemaError)
        for i, r in enumerate(_require_seq(doc["extra_rays"], "extra_rays", SchemaError))
    )
    for i, r in enumerate(rays):
        if math.gcd(*(abs(x) for x in r)) != 1:
            raise NonPrimitiveRay(f"extra ray {list(r)} is not primitive")
    cones = None
    if "max_cones" in doc:
        cones = tuple(
            require_ints(c, f"max_cones[{i}]", n, SchemaError)
            for i, c in enumerate(_require_seq(doc["max_cones"], "max_cones", SchemaError))
        )
    energies = None
    if "energies" in doc:
        energies = parse_energies(doc["energies"], SchemaError)
    return FanSpec(n, rays, cones, energies)


def parse_scalar_literal(text: str) -> NovikovScalar:
    """Parse scalar literals like '2', 'T^1/2', '1 - T + 2*T^3/2', 'T^-1'."""
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty scalar literal")
    parts = []
    start = 0
    for i in range(1, len(s)):
        # a sign after ^, *, / or another sign belongs to the number
        if s[i] in "+-" and s[i - 1] not in "^*/+-":
            parts.append(s[start:i])
            start = i
    parts.append(s[start:])
    pairs = []
    for part in parts:
        sign = Fraction(1)
        if part and part[0] in "+-":
            if part[0] == "-":
                sign = -sign
            part = part[1:]
        try:
            if "T" in part:
                coeff_txt, _, exp_txt = part.partition("T")
                if coeff_txt.endswith("*"):
                    coeff_txt = coeff_txt[:-1]
                    if not coeff_txt:
                        raise ValueError("no coefficient before *")
                coeff = Fraction(coeff_txt) if coeff_txt else Fraction(1)
                if exp_txt == "":
                    e = Fraction(1)
                elif exp_txt.startswith("^"):
                    e = Fraction(exp_txt[1:])
                else:
                    raise ValueError(f"expected ^ after T, got {exp_txt!r}")
            else:
                coeff = Fraction(part)
                e = Fraction(0)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad scalar literal {text!r}: {exc}") from exc
        pairs.append((e, sign * coeff))
    return NovikovScalar.from_terms(pairs)


def _parse_rational_list(text: str, what: str) -> tuple[Fraction, ...]:
    if not text.strip():
        return ()
    return _require_rationals(text.split(","), what, ParseError)


def _parse_series_doc(doc, spec: FanSpec) -> ClassSeries:
    _require_keys(doc, {"n", "m", "terms"}, {"n", "m", "terms"}, "series", SchemaError)
    n = require_int(doc["n"], "series: n", SchemaError)
    m = require_int(doc["m"], "series: m", SchemaError)
    if n != spec.n or m != spec.m:
        raise DimensionMismatch(
            f"series shape ({n},{m}) does not match fan ({spec.n},{spec.m})"
        )
    return from_records(n, m, _require_seq(doc["terms"], "series: terms", SchemaError))


# rendering

def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def _json_records(columns: list[tuple[str, list | tuple]], depth: int) -> str:
    """A list of flat records, given column by column as (key, values),
    laid out exactly as _json_text lays it out depth levels deep, without
    json's pure-Python indenting encoder.

    A list of values holds one str or int per record; a tuple holds the
    int columns of an array field, one per entry, () for an empty array.
    The first column is a list.  The %-template of one record has a field
    per str or int and per entry of an array; a str goes through
    encode_basestring and an int is formatted by %d.  Only the template's
    own text is %-escaped: the values are arguments, never parsed.
    """
    if not columns[0][1]:
        return "[]"
    end_pad, rec_pad, field_pad, item_pad = ("\n" + "  " * (depth + i) for i in range(4))
    fields, args = [], []
    for key, values in columns:
        head = f"{field_pad}{encode_basestring(key)}: ".replace("%", "%%")
        if isinstance(values, tuple):
            entries = ("," + item_pad).join(["%d"] * len(values))
            fields.append(f"{head}[{item_pad}{entries}{field_pad}]" if values else head + "[]")
            args += values
        elif isinstance(values[0], str):
            fields.append(head + "%s")
            args.append(map(encode_basestring, values))
        else:
            fields.append(head + "%d")
            args.append(values)
    template = rec_pad + "{" + ",".join(fields) + rec_pad + "}"
    return f"[{','.join(map(template.__mod__, zip(*args)))}{end_pad}]"


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _table_text(header, rows) -> str:
    cells = [[str(c) for c in row] for row in [list(header)] + [list(r) for r in rows]]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    lines = []
    for row in cells:
        line = "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
        lines.append(line)
    return "\n".join(lines) + "\n"


def _series_columns(n: int, m: int) -> list[str]:
    return (
        ["b"]
        + [f"g_{k}" for k in range(1, n)]
        + [f"h_{a}" for a in range(1, m + 1)]
    )


def render_series(s: ClassSeries, fmt: str) -> str:
    cols, den, nums = s.columns()
    h, b, g = cols[:s.m], cols[s.m], cols[s.m + 1:]
    if fmt == "json":
        numerators, denominators = _fractions(den, nums)
        terms = _json_records([
            ("b", b),
            ("g", tuple(g)),
            ("h", tuple(h)),
            ("coeff_numerator", numerators),
            ("coeff_denominator", denominators),
        ], 1)
        return f'{{\n  "n": {s.n},\n  "m": {s.m},\n  "terms": {terms}\n}}\n'
    coeffs = _fraction_texts(den, nums)
    if fmt == "csv":
        header = _series_columns(s.n, s.m) + ["coeff"]
        return _csv_text(header, zip(b, *g, *h, coeffs))
    return _table_text(["class", "coeff"], zip(_class_names(s.m, s.n - 1, cols), coeffs))


def render_invariants(table: InvariantTable, spec: FanSpec, fmt: str) -> str:
    names, h, b, g, maslov, n_beta = table.columns()
    if fmt == "json":
        return _json_records([
            ("name", names),
            ("b", b),
            ("g", tuple(g)),
            ("h", tuple(h)),
            ("maslov", maslov),
            ("n_beta", n_beta),
        ], 0) + "\n"
    if fmt == "csv":
        header = _series_columns(spec.n, spec.m) + ["maslov", "n_beta"]
        return _csv_text(header, zip(b, *g, *h, maslov, n_beta))
    return _table_text(["class", "maslov", "n_beta"], zip(names, maslov, n_beta))


def render_validation(report, fmt: str) -> str:
    checks = [
        ("primitive", report.primitive_ok),
        ("smooth", report.smooth_ok),
        ("complete", report.complete_ok),
        ("fano", report.fano_ok),
        ("overall", report.all_ok),
    ]
    if fmt == "json":
        return _json_text(
            {
                "primitive_ok": report.primitive_ok,
                "smooth_ok": report.smooth_ok,
                "complete_ok": report.complete_ok,
                "fano_ok": report.fano_ok,
                "all_ok": report.all_ok,
                "diagnostics": list(report.diagnostics),
            }
        )
    if fmt == "csv":
        rows = [[name, "ok" if ok else "fail"] for name, ok in checks]
        rows += [["diagnostic", d] for d in report.diagnostics]
        return _csv_text(["check", "result"], rows)
    body = _table_text(
        ["check", "result"], [[name, "ok" if ok else "fail"] for name, ok in checks]
    )
    if report.diagnostics:
        body += "".join(f"  - {d}\n" for d in report.diagnostics)
    return body


def render_matrix(mat, fmt: str) -> str:
    if fmt == "json":
        return _json_text([list(row) for row in mat])
    if fmt == "csv":
        return _csv_text([f"c_{j}" for j in range(1, len(mat[0]) + 1)], [list(r) for r in mat])
    width = max(len(str(x)) for row in mat for x in row)
    lines = ["  ".join(str(x).rjust(width) for x in row) for row in mat]
    return "\n".join(lines) + "\n"


def render_scalar(x: NovikovScalar, fmt: str) -> str:
    if fmt not in ("json", "csv"):
        return str(x) + "\n"
    d, exps, den, nums = x.columns()
    exponents, coefficients = _fraction_texts(d, exps), _fraction_texts(den, nums)
    if fmt == "json":
        terms = _json_records([("exponent", exponents), ("coefficient", coefficients)], 1)
        cutoff = "null" if x.cutoff is None else encode_basestring(str(x.cutoff))
        return f'{{\n  "terms": {terms},\n  "cutoff": {cutoff}\n}}\n'
    return _csv_text(["exponent", "coefficient"], zip(exponents, coefficients))


# subcommands

def _cmd_validate(args) -> str:
    spec = parse_fan_spec(args.file)
    return render_validation(validate_fan(spec), args.format)


def _superpotential(spec: FanSpec, chamber: str, ambient: str):
    make = {
        Chart.CLIFFORD: clifford_superpotential,
        Chart.CHEKANOV: chekanov_superpotential,
    }[CHAMBERS[chamber]]
    return make(spec, AMBIENTS[ambient])


def _cmd_superpotential(args) -> str:
    spec = parse_fan_spec(args.file)
    w = _superpotential(spec, args.chamber, args.ambient)
    return render_series(w.series, args.format)


def _cmd_invariants(args) -> str:
    spec = parse_fan_spec(args.file)
    w = _superpotential(spec, args.chamber, args.ambient)
    return render_invariants(invariant_table(w), spec, args.format)


def _cmd_glue(args) -> str:
    spec = parse_fan_spec(args.file)
    s = _parse_series_doc(_load_json(args.input), spec)
    gd = wall_crossing_factor(spec, DIRECTIONS[args.direction], args.truncate)
    return render_series(apply_gluing(spec, s, gd), args.format)


def _cmd_classify(args) -> str:
    lam = _parse_rational_list(args.lam, "--lambda")
    q2 = require_rational(args.q2, "--q2", ParseError)
    chamber = classify_point(args.n, ChamberPoint(lam, q2))
    return f"{chamber}\n"


def _cmd_monodromy(args) -> str:
    doc = _load_json(args.rays)
    _require_keys(doc, {"rays", "constants", "m0"}, {"rays"}, "rays", SchemaError)
    if not isinstance(doc["rays"], list) or not doc["rays"]:
        raise SchemaError("rays must be a nonempty array of integer arrays")
    dim = len(doc["rays"][0]) if isinstance(doc["rays"][0], list) else 0
    rays = [require_ints(r, f"rays[{i}]", dim, SchemaError) for i, r in enumerate(doc["rays"])]
    constants = None
    if "constants" in doc:
        constants = _require_rationals(doc["constants"], "constants", SchemaError)
    m0 = require_ints(doc["m0"], "m0", dim, SchemaError) if "m0" in doc else None
    fan_rays = CYFanRays(tuple(rays), constants, m0)
    return render_matrix(monodromy_matrix(fan_rays, args.i, args.j), args.format)


def _cmd_eval(args) -> str:
    spec = parse_fan_spec(args.file)
    values = None
    if args.energies is not None:
        try:
            doc = json.loads(args.energies)
        except json.JSONDecodeError as exc:
            raise ParseError(
                f"--energies: line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        values = parse_energies(doc, SchemaError)
    ea = assign_energies(spec, values)
    point = [parse_scalar_literal(t) for t in args.point.split(",")]
    if (CHAMBERS[args.chamber], AMBIENTS[args.ambient]) == (Chart.CHEKANOV, Ambient.COMPACT):
        # factored at a monomial point, expanded otherwise
        value = evaluate_chekanov(ea, point)
    else:
        value = evaluate(_superpotential(spec, args.chamber, args.ambient).series, ea, point)
    return render_scalar(value, args.format)


def _cmd_oracle(args) -> str:
    family = args.family.replace("-", "_")
    params: dict = {}
    if args.n is not None:
        params["n"] = args.n
    if args.r is not None:
        params["r"] = args.r
    if args.beta_hat:
        params["beta_hat"] = True
    else:
        if args.branch is not None:
            params["branch"] = args.branch
        if args.k is not None:
            ks = _parse_rational_list(args.k, "--k")
            if any(x.denominator != 1 for x in ks):
                raise ParseError(f"bad --k {args.k!r}: entries must be integers")
            ints = tuple(x.numerator for x in ks)
            params["k"] = ints[0] if family == "f1" and len(ints) == 1 else ints
    return f"{closed_form_invariant(family, params)}\n"


def _add_format(p: argparse.ArgumentParser):
    p.add_argument(
        "--format", choices=["table", "csv", "json"], default="table",
        help="output format (default: table)",
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on first use, not at import, and kept for the process
    parser = argparse.ArgumentParser(
        prog="opengw",
        description="Superpotentials and open Gromov-Witten invariants of "
        "toric Fano compactifications of C^n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a fan: primitive, smooth, complete, Fano")
    p.add_argument("file", help="fan spec JSON (or - for stdin)")
    _add_format(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("superpotential", help="chamber superpotential as a class series")
    p.add_argument("file")
    p.add_argument("--chamber", choices=sorted(CHAMBERS), required=True)
    p.add_argument("--ambient", choices=sorted(AMBIENTS), required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_superpotential)

    p = sub.add_parser("invariants", help="one-pointed disk counts (Chekanov side by default)")
    p.add_argument("file")
    p.add_argument("--chamber", choices=sorted(CHAMBERS), default="minus")
    p.add_argument("--ambient", choices=sorted(AMBIENTS), default="compact")
    _add_format(p)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("glue", help="apply the wall-crossing map to a series file")
    p.add_argument("file")
    p.add_argument("--input", required=True, help="series JSON file")
    p.add_argument("--direction", choices=sorted(DIRECTIONS), required=True)
    p.add_argument("--truncate", type=int, required=True, help="gamma-degree bound")
    _add_format(p)
    p.set_defaults(func=_cmd_glue)

    p = sub.add_parser("classify", help="chamber of a fibration base point")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", default="", help="comma-separated rationals")
    p.add_argument("--q2", required=True, help="critical coordinate, rational")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("monodromy", help="wall-crossing monodromy matrix")
    p.add_argument("--rays", required=True, help="rays JSON file")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_monodromy)

    p = sub.add_parser("eval", help="evaluate a superpotential at a torus point")
    p.add_argument("file")
    p.add_argument("--energies", help="inline JSON, overrides the file's energies")
    p.add_argument("--point", required=True, help="comma-separated scalar literals")
    p.add_argument("--chamber", choices=sorted(CHAMBERS), default="minus")
    p.add_argument("--ambient", choices=sorted(AMBIENTS), default="compact")
    _add_format(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("oracle", help="closed-form invariant value")
    p.add_argument("family", choices=["cpn", "cp-product", "f1"])
    p.add_argument("--n", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--branch", choices=["H1", "H2"])
    p.add_argument("--k", help="comma-separated integers")
    p.add_argument("--beta-hat", action="store_true", dest="beta_hat")
    p.set_defaults(func=_cmd_oracle)

    return parser


@functools.cache
def _value_actions(parser: argparse.ArgumentParser) -> tuple[argparse.Action, ...]:
    """Every action, subcommands included, that takes a value; walked once
    per parser, which _build_parser builds once per process."""
    actions = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                actions += _value_actions(sub)
        elif action.nargs != 0:
            actions.append(action)
    return tuple(actions)


@functools.cache
def _option_flags(parser: argparse.ArgumentParser) -> frozenset[str]:
    """Option strings of every action, subcommands included, that takes a value."""
    return frozenset(flag for action in _value_actions(parser) for flag in action.option_strings)


def _merge_negative_values(argv: list[str]) -> list[str]:
    # argparse mistakes values like "-1,2" for option strings; fold them
    # into --flag=value form so negative rationals work as flag values
    value_flags = _option_flags(_build_parser())
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (
            tok in value_flags
            and nxt is not None
            and nxt.startswith("-")
            and not nxt.startswith("--")
        ):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        args = parser.parse_args(_merge_negative_values(list(argv)))
        # argparse before Python 3.12 parses "--flag=--" to [] where
        # "--flag --" is an error; no flag here takes a list
        for action in _value_actions(parser):
            if isinstance(getattr(args, action.dest, None), list):
                name = "/".join(action.option_strings) or action.dest
                parser.error(f"argument {name}: expected one argument")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        text = args.func(args)
    except (ParseError, SchemaError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
