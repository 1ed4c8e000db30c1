"""Command-line surface: fan ingestion, subcommands, deterministic output.

Subcommands: validate, superpotential, invariants, glue, classify,
monodromy, eval, oracle.  Input fans are JSON documents; all rationals in
files and flags are exact, written as integers or "p/q" strings, never
floats.  Output (table, csv, or json) is byte-deterministic for identical
inputs.  Exit codes: 0 success, 1 domain error, 2 usage or parse error.
A --point coordinate is a sum of terms c, c*T^e, cT^e and T^e, each after
the first opening with + or -, with c and e rationals that keep their own
optional sign ('+-1/3*T^2'), all read by one term pattern.

argv is read against one table, COMMANDS, which renders the usage and
-h/--help texts too.  A value flag takes the next token as it stands
("--lambda -1,2"), unless it starts with "--", or the text after "=" of
"--flag=value", an empty one too.  A lone "--" ends the options, "-" is a
file name, flags are never abbreviated, and a repeated flag keeps its
last value.  A usage error prints a usage line and an error line naming
the flag to stderr, nothing to stdout, and exits 2.

eval of the compact Chekanov superpotential (--chamber minus, --ambient
compact, the defaults) goes through novikov.evaluate_chekanov.  At a
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
import re
import sys
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import ESCAPE, encode_basestring
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
from .novikov import NovikovScalar, assign_energies, evaluate, evaluate_chekanov
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
    UnsupportedFan, naming the checks that ran and failed.  A document
    without max_cones cannot be validated and is accepted as it is.
    """
    spec = parse_fan_spec(source)
    if spec.max_cones is not None:
        report = validate_fan(spec)
        # validate_fan runs complete only on a smooth fan, fano only on a complete one
        ran = {"complete": report.smooth_ok, "fano": report.complete_ok}
        failed = [c for c in CHECKS if ran.get(c, True) and not getattr(report, f"{c}_ok")]
        if failed:
            raise UnsupportedFan(f"fan fails {', '.join(failed)}: {'; '.join(report.diagnostics)}")
    return spec


# a term of a scalar literal: sign, coefficient, *, T, exponent
_TERM = re.compile(r"([+-]?)([+-]?[^-+*T^]*)(\*?)(?:(T)(?:\^([+-]?[^-+*T^]*))?)?")


def parse_scalar_literal(text: str) -> NovikovScalar:
    """Parse scalar literals like '2', 'T^1/2', '1 - T + 2*T^3/2', 'T^-1'.

    Spaces dropped, a literal is terms [s]c, [s][c]T[^e] or [s]c*T[^e],
    each after the first opening with its sign s.  c (default 1) and e
    (default 1; 0 without T) are read by require_rational and keep their
    own sign, so '+-2' is -2 and '--1' is 1.  Anything else: ParseError.
    """
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty scalar literal")
    what = f"scalar literal {text!r}"
    pairs = []
    pos = 0
    while pos < len(s):
        term = _TERM.match(s, pos)
        sign, coeff, star, t, e = term.groups()
        if term.end() == pos or (pos and not sign):
            raise ParseError(f"bad {what}: unexpected {s[pos:]!r}")
        if star and not (coeff and t):
            raise ParseError(f"bad {what}: " + ("no coefficient before *" if t else "no T after *"))
        c = require_rational(coeff, what, ParseError) if coeff or not t else 1
        e = require_rational(e, what, ParseError) if e is not None else 1 if t else 0
        pairs.append((e, -c if sign == "-" else c))
        pos = term.end()
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


# a document of fewer records is one %-format, of more one join of cached
# per-column text: the first costs less while few values repeat, and the
# two cost about the same near this count
_FEW_RECORDS = 48


class _Texts(dict):
    # int v -> prefix + its text, each made on first use
    __slots__ = ("prefix",)

    def __init__(self, prefix: str):
        super().__init__()
        self.prefix = prefix

    def __missing__(self, v: int) -> str:
        text = self[v] = f"{self.prefix}{v}"
        return text


def _json_records(columns: list[tuple[str, list | tuple]], depth: int,
                  head: str = "", tail: str = "") -> str:
    """A list of flat records, given column by column as (key, values),
    laid out exactly as _json_text lays it out depth levels deep, without
    json's pure-Python indenting encoder, between head and tail.

    A list of values holds one str or int per record; a tuple holds the
    int columns of an array field, one per entry, () for an empty array.
    The first column is a list.  Every value follows a gap, the constant
    text since the value before it.  A str column enters as it is, inside
    quote gaps, unless one json.encoder.ESCAPE search over the joined
    column finds a character to escape; then every value goes through
    encode_basestring, as every key does.  Below _FEW_RECORDS records the
    document is one %-format of the gaps, repeated per record, with the
    values and head and tail as its arguments, never parsed.  Otherwise
    it is one join over a flat stream of pieces, no string made per
    record: an int column's piece is its gap and the value's text, made
    once per distinct value by a _Texts map; a str column's gap and value
    are two pieces.
    """
    rows = len(columns[0][1])
    if not rows:
        return f"{head}[]{tail}"
    few = rows < _FEW_RECORDS
    end_pad = "\n" + "  " * depth
    rec_pad, field_pad, item_pad = end_pad + "  ", end_pad + "    ", end_pad + "      "
    gaps, cols, lead = [], [], rec_pad + "{"
    for key, values in columns:
        # a %-format's gaps are its own text: a key's % is escaped there
        key = encode_basestring(key)
        name = f"{lead}{field_pad}{key.replace('%', '%%') if few else key}: "
        if isinstance(values, tuple):
            if not values:
                lead = name + "[],"
                continue
            gaps += [name + "[" + item_pad, *repeat("," + item_pad, len(values) - 1)]
            cols += values
            lead = field_pad + "],"
        elif isinstance(values[0], str):
            if ESCAPE.search("".join(values)):
                gaps.append(name)
                cols.append(list(map(encode_basestring, values)))
                lead = ","
            else:
                gaps.append(name + '"')
                cols.append(values)
                lead = '",'
        else:
            gaps.append(name)
            cols.append(values)
            lead = ","
    close = lead[:-1] + rec_pad + "}"
    if few:
        record = "%s".join([*gaps, close])
        document = "".join(["%s[", *repeat(record + ",", rows - 1), record, "%s"])
        return document % (head, *chain.from_iterable(zip(*cols)), end_pad + "]" + tail)
    stream = [chain((head + "[",), repeat(close + ",", rows - 1))]
    for gap, col in zip(gaps, cols):
        if isinstance(col[0], str):
            stream += repeat(gap), col
        else:
            stream.append(map(_Texts(gap).__getitem__, col))
    return "".join(chain(chain.from_iterable(zip(*stream)), (f"{close}{end_pad}]{tail}",)))


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _table_text(header, columns) -> str:
    """Left-aligned columns under their header, two spaces apart, each
    line without trailing blanks; given column by column."""
    cells = [[name, *map(str, col)] for name, col in zip(header, columns)]
    padded = [map(str.ljust, col, repeat(max(map(len, col)))) for col in cells]
    return "\n".join(chain(map(str.rstrip, map("  ".join, zip(*padded))), ("",)))


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
    return _table_text(["class", "coeff"], (_class_names(s.m, s.n - 1, cols), coeffs))


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
    return _table_text(["class", "maslov", "n_beta"], (names, maslov, n_beta))


def render_validation(report, fmt: str) -> str:
    # each check is the report's <name>_ok, shown as "overall" for "all"
    names, notes = CHECKS + ("all",), report.diagnostics
    oks = [getattr(report, f"{name}_ok") for name in names]
    if fmt == "json":
        doc = {f"{name}_ok": ok for name, ok in zip(names, oks)}
        return _json_text({**doc, "diagnostics": list(notes)})
    shown, results = names[:4] + ("overall",), ["ok" if ok else "fail" for ok in oks]
    if fmt == "csv":
        rows = [*zip(shown, results), *(("diagnostic", d) for d in notes)]
        return _csv_text(["check", "result"], rows)
    return (_table_text(["check", "result"], (shown, results))
            + "".join(f"  - {d}\n" for d in notes))


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
        header = ["command", "does"]
        columns = list(COMMANDS), [spec[1] for spec in COMMANDS.values()]
    else:
        _, about, positionals, flags = COMMANDS[command]
        header = ["argument", "meaning"]
        shown = [*map(_shown, positionals), *map(_shown, flags.values(), flags)]
        columns = shown, [spec[5] for spec in (*positionals, *flags.values())]
    return f"{_usage(command)}\n{about}\n\n{_table_text(header, columns)}"


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
