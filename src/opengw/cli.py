"""Command-line surface: fan ingestion, subcommands, deterministic output.

Subcommands: validate, superpotential, invariants, glue, classify,
monodromy, eval, oracle.  Input fans are JSON documents; all rationals in
files and flags are exact, written as integers or "p/q" strings, never
floats.  Output (table, csv, or json) is byte-deterministic for identical
inputs.  Exit codes: 0 success, 1 domain error, 2 usage or parse error.

argv is read against one table, COMMANDS, which renders the usage and
-h/--help texts too.  A value flag takes the next token as it stands
("--lambda -1,2"), unless it starts with "--", or the text after "=" of
"--flag=value", an empty one too.  A lone "--" ends the options, "-" is a
file name, flags are never abbreviated, and a repeated flag keeps its
last value.  A usage error prints a usage line and an error line naming
the flag to stderr, nothing to stdout, and exits 2.

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

import csv
import io
import json
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring
from types import SimpleNamespace

from .errors import (
    DimensionMismatch,
    DomainError,
    NonPrimitiveRay,
    ParseError,
    SchemaError,
    UnsupportedFan,
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

# the checks of validate_fan, each the report's <name>_ok
CHECKS = ("primitive", "smooth", "complete", "fano")
# in sorted order, as the command table lists them
CHAMBERS = {"minus": Chart.CHEKANOV, "plus": Chart.CLIFFORD}
AMBIENTS = {"compact": Ambient.COMPACT, "open": Ambient.OPEN}
DIRECTIONS = {
    "minus-to-plus": Direction.MINUS_TO_PLUS,
    "plus-to-minus": Direction.PLUS_TO_MINUS,
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
    return _json_doc(text, source)


def _json_doc(text: str, where: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


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


def _theorem_fan(source: str) -> FanSpec:
    """parse_fan_spec, then validate_fan when the document lists max_cones.

    A fan that fails a check is outside the theorem, so the commands that
    build a superpotential, table, gluing or evaluation refuse it with
    UnsupportedFan, naming the failed checks.  A document without
    max_cones cannot be validated and is accepted as it is.
    """
    spec = parse_fan_spec(source)
    if spec.max_cones is not None:
        report = validate_fan(spec)
        failed = [name for name in CHECKS if not getattr(report, f"{name}_ok")]
        if failed:
            raise UnsupportedFan(f"fan fails {', '.join(failed)}: {'; '.join(report.diagnostics)}")
    return spec


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


def _json_records(columns: list[tuple[str, list | tuple]], depth: int,
                  head: str = "", tail: str = "") -> str:
    """A list of flat records, given column by column as (key, values),
    laid out exactly as _json_text lays it out depth levels deep, without
    json's pure-Python indenting encoder, between head and tail.

    A list of values holds one str or int per record; a tuple holds the
    int columns of an array field, one per entry, () for an empty array.
    The first column is a list.  The %-template of one record has a field
    per str or int and per entry of an array; a str goes through
    encode_basestring and an int is formatted by %d.  Only the template's
    own text is %-escaped: the values are arguments, never parsed.  head and
    tail join the first and last records: the one whole-text copy is the join.
    """
    if not columns[0][1]:
        return f"{head}[]{tail}"
    end_pad, rec_pad, field_pad, item_pad = ("\n" + "  " * (depth + i) for i in range(4))
    fields, args = [], []
    for key, values in columns:
        name = f"{field_pad}{encode_basestring(key)}: ".replace("%", "%%")
        if isinstance(values, tuple):
            entries = ("," + item_pad).join(["%d"] * len(values))
            fields.append(f"{name}[{item_pad}{entries}{field_pad}]" if values else name + "[]")
            args += values
        elif isinstance(values[0], str):
            fields.append(name + "%s")
            args.append(map(encode_basestring, values))
        else:
            fields.append(name + "%d")
            args.append(values)
    template = rec_pad + "{" + ",".join(fields) + rec_pad + "}"
    records = list(map(template.__mod__, zip(*args)))
    records[0] = f"{head}[{records[0]}"
    records[-1] = f"{records[-1]}{end_pad}]{tail}"
    return ",".join(records)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _table_text(header, rows) -> str:
    cells = [[str(c) for c in row] for row in [list(header)] + [list(r) for r in rows]]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    return "".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n"
                   for row in cells)


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
        return _json_records([
            ("b", b),
            ("g", tuple(g)),
            ("h", tuple(h)),
            ("coeff_numerator", numerators),
            ("coeff_denominator", denominators),
        ], 1, f'{{\n  "n": {s.n},\n  "m": {s.m},\n  "terms": ', "\n}\n")
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
        ], 0, "", "\n")
    if fmt == "csv":
        header = _series_columns(spec.n, spec.m) + ["maslov", "n_beta"]
        return _csv_text(header, zip(b, *g, *h, maslov, n_beta))
    return _table_text(["class", "maslov", "n_beta"], zip(names, maslov, n_beta))


def render_validation(report, fmt: str) -> str:
    # each check is the report's <name>_ok, shown as "overall" for "all"
    names, notes = CHECKS + ("all",), report.diagnostics
    oks = [getattr(report, f"{name}_ok") for name in names]
    if fmt == "json":
        doc = {f"{name}_ok": ok for name, ok in zip(names, oks)}
        return _json_text({**doc, "diagnostics": list(notes)})
    rows = [[name, "ok" if ok else "fail"] for name, ok in zip(names[:4] + ("overall",), oks)]
    if fmt == "csv":
        return _csv_text(["check", "result"], rows + [["diagnostic", d] for d in notes])
    return _table_text(["check", "result"], rows) + "".join(f"  - {d}\n" for d in notes)


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
        cutoff = "null" if x.cutoff is None else encode_basestring(str(x.cutoff))
        return _json_records([("exponent", exponents), ("coefficient", coefficients)], 1,
                             '{\n  "terms": ', f',\n  "cutoff": {cutoff}\n}}\n')
    return _csv_text(["exponent", "coefficient"], zip(exponents, coefficients))


# subcommands

def _cmd_validate(args) -> str:
    return render_validation(validate_fan(parse_fan_spec(args.file)), args.format)


def _superpotential(spec: FanSpec, chamber: str, ambient: str):
    clifford = CHAMBERS[chamber] is Chart.CLIFFORD
    make = clifford_superpotential if clifford else chekanov_superpotential
    return make(spec, AMBIENTS[ambient])


def _cmd_superpotential(args) -> str:
    w = _superpotential(_theorem_fan(args.file), args.chamber, args.ambient)
    return render_series(w.series, args.format)


def _cmd_invariants(args) -> str:
    spec = _theorem_fan(args.file)
    w = _superpotential(spec, args.chamber, args.ambient)
    return render_invariants(invariant_table(w), spec, args.format)


def _cmd_glue(args) -> str:
    spec = _theorem_fan(args.file)
    s = _parse_series_doc(_load_json(args.input), spec)
    gd = wall_crossing_factor(spec, DIRECTIONS[args.direction], args.truncate)
    return render_series(apply_gluing(spec, s, gd), args.format)


# classify and monodromy alone use chambers: it is imported when they run

def _cmd_classify(args) -> str:
    from .chambers import ChamberPoint, classify_point

    lam = _parse_rational_list(args.lam, "--lambda")
    q2 = require_rational(args.q2, "--q2", ParseError)
    return f"{classify_point(args.n, ChamberPoint(lam, q2))}\n"


def _cmd_monodromy(args) -> str:
    from .chambers import CYFanRays, monodromy_matrix

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
    spec = _theorem_fan(args.file)
    values = None
    if args.energies is not None:
        values = parse_energies(_json_doc(args.energies, "--energies"), SchemaError)
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
    params = {key: v for key, v in (("n", args.n), ("r", args.r)) if v is not None}
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


# the command table

def _flag(dest: str, kind: type = str, choices=None, default=None, required=False, help=""):
    # a flag or positional; kind is int, str or bool (a flag without value)
    return dest, kind, choices, default, required, help


FILE = _flag("file", required=True, help="fan spec JSON, - for stdin")
FORMAT = {"--format": _flag("format", choices=("table", "csv", "json"), default="table",
                            help="output format (default: table)")}
SIDE = {
    "--chamber": _flag("chamber", choices=CHAMBERS, default="minus"),
    "--ambient": _flag("ambient", choices=AMBIENTS, default="compact"),
}

# name: (handler, help, positionals, flags by name)
COMMANDS = {
    "validate": (_cmd_validate, "check a fan: primitive, smooth, complete, Fano", (FILE,), FORMAT),
    "superpotential": (_cmd_superpotential, "chamber superpotential as a class series", (FILE,), {
        "--chamber": _flag("chamber", choices=CHAMBERS, required=True),
        "--ambient": _flag("ambient", choices=AMBIENTS, required=True),
        **FORMAT,
    }),
    "invariants": (_cmd_invariants, "one-pointed disk counts (Chekanov side by default)",
                   (FILE,), {**SIDE, **FORMAT}),
    "glue": (_cmd_glue, "apply the wall-crossing map to a series file", (FILE,), {
        "--input": _flag("input", required=True, help="series JSON file"),
        "--direction": _flag("direction", choices=DIRECTIONS, required=True),
        "--truncate": _flag("truncate", int, required=True, help="gamma-degree bound"),
        **FORMAT,
    }),
    "classify": (_cmd_classify, "chamber of a fibration base point", (), {
        "--n": _flag("n", int, required=True),
        "--lambda": _flag("lam", default="", help="comma-separated rationals"),
        "--q2": _flag("q2", required=True, help="critical coordinate, rational"),
    }),
    "monodromy": (_cmd_monodromy, "wall-crossing monodromy matrix", (), {
        "--rays": _flag("rays", required=True, help="rays JSON file"),
        "--i": _flag("i", int, required=True),
        "--j": _flag("j", int, required=True),
        **FORMAT,
    }),
    "eval": (_cmd_eval, "evaluate a superpotential at a torus point", (FILE,), {
        "--energies": _flag("energies", help="inline JSON, overrides the file's energies"),
        "--point": _flag("point", required=True, help="comma-separated scalar literals"),
        **SIDE,
        **FORMAT,
    }),
    "oracle": (_cmd_oracle, "closed-form invariant value",
               (_flag("family", choices=("cpn", "cp-product", "f1"), required=True),), {
        "--n": _flag("n", int),
        "--r": _flag("r", int),
        "--branch": _flag("branch", choices=("H1", "H2")),
        "--k": _flag("k", help="comma-separated integers"),
        "--beta-hat": _flag("beta_hat", bool, default=False, help="the basic disk"),
    }),
}
HELP = ("-h", "--help")


class _Usage(Exception):
    """(command, message) of a usage error, command None before one is known."""


def _invalid(what: str, value, choices) -> str:
    listed = ", ".join(map(repr, choices))
    return f"argument {what}: invalid choice: {value!r} (choose from {listed})"


def _parse(argv):
    """(handler, args) of argv read against COMMANDS: a subcommand's handler
    and its values by dest, or _help and the command after -h or --help."""
    command = argv[0] if argv else None
    if command in HELP:
        return _help, None
    if command not in COMMANDS:
        raise _Usage(None, _invalid("command", command, COMMANDS) if argv
                     else "the following arguments are required: command")
    handler, _, positionals, flags = COMMANDS[command]
    values = {spec[0]: spec[3] for spec in (*positionals, *flags.values())}
    read, options = 0, True
    tokens = iter(argv[1:])
    for token in tokens:
        if options and token[:1] == "-" and token != "-":
            if token == "--":
                options = False
                continue
            if token in HELP:
                return _help, command
            name, eq, value = token.partition("=") if token[:2] == "--" else (token, "", "")
            if name not in flags:
                raise _Usage(command, f"unrecognized arguments: {token}")
            dest, kind, choices = flags[name][:3]
            if kind is bool:
                if eq:
                    raise _Usage(command, f"argument {name}: ignored explicit argument {value!r}")
                value = True
            elif not eq:
                value = next(tokens, "--")
                if value[:2] == "--":
                    raise _Usage(command, f"argument {name}: expected one argument")
        elif read < len(positionals):
            (name, kind, choices), value = positionals[read][:3], token
            dest, read = name, read + 1
        else:
            raise _Usage(command, f"unrecognized arguments: {token}")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise _Usage(command, f"argument {name}: invalid int value: {value!r}") from None
        if choices and value not in choices:
            raise _Usage(command, _invalid(name, value, choices))
        values[dest] = value
    # a required argument has no default, and a value read is never None
    missing = [spec[0] for spec in positionals if values[spec[0]] is None]
    missing += [name for name, spec in flags.items() if spec[4] and values[spec[0]] is None]
    if missing:
        raise _Usage(command, f"the following arguments are required: {', '.join(missing)}")
    return handler, SimpleNamespace(**values)


def _shown(spec, name: str = "") -> str:
    # a positional as its dest or choices, a flag as its name and metavar
    dest, kind, choices = spec[:3]
    metavar = "{" + ",".join(choices) + "}" if choices else dest.upper() if name else dest
    return name if kind is bool else f"{name} {metavar}".lstrip()


def _usage(command) -> str:
    if command is None:
        return "usage: opengw [-h] COMMAND ...\n"
    _, _, positionals, flags = COMMANDS[command]
    parts = [_shown(s, name) if s[4] else f"[{_shown(s, name)}]" for name, s in flags.items()]
    parts += map(_shown, positionals)
    return f"usage: opengw {command} [-h] {' '.join(parts)}\n"


def _help(command) -> str:
    """The usage line, then a row per command or per argument of one."""
    if command is None:
        about = "Superpotentials and open Gromov-Witten invariants of toric Fano " \
                "compactifications of C^n."
        header, rows = ["command", "does"], [(name, spec[1]) for name, spec in COMMANDS.items()]
    else:
        _, about, positionals, flags = COMMANDS[command]
        header = ["argument", "meaning"]
        rows = [(_shown(spec), spec[5]) for spec in positionals]
        rows += [(_shown(spec, name), spec[5]) for name, spec in flags.items()]
    return f"{_usage(command)}\n{about}\n\n{_table_text(header, rows)}"


def main(argv=None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else argv)
        text = handler(args)
    except _Usage as exc:
        command, message = exc.args
        prog = "opengw" if command is None else f"opengw {command}"
        sys.stderr.write(f"{_usage(command)}{prog}: error: {message}\n")
        return 2
    except DomainError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ParseError, SchemaError)) else 1
    sys.stdout.write(text)
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
