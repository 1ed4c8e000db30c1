"""Seeded inputs and exact oracles for the four benchmark workloads.

A workload is built from a seed into a plan: the files to write before the
first pass and the list of ops one pass runs in order.  Each op is either a
CLI call (argv for ``opengw.cli.main``) or a library call, and carries the
oracle that its stdout must satisfy.  Every oracle is computed here, with
this file's own dict arithmetic, except the per-row ``closed_form_invariant``
cross-check that the invariants workload asks of the package.

Classes are keys ``(b, g, h)`` of integer tuples, the same coordinates as
``opengw.fan.RelClass``; coefficients are ``Fraction``.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from functools import partial
from pathlib import Path

FORMATS = ("table", "csv", "json")

# The seven fans of acceptance check 5, written as (label, n, extra rays).
GLUE_FANS = [
    ("cp2", 2, [(1, 1)]),
    ("cp3", 3, [(1, 1, 1)]),
    ("cp4", 4, [(1, 1, 1, 1)]),
    ("cp1xcp1", 2, [(1, 0), (0, 1)]),
    ("cp1xcp2", 3, [(1, 0, 0), (0, 1, 1)]),
    ("cp2xcp3", 5, [(1, 1, 0, 0, 0), (0, 0, 1, 1, 1)]),
    ("f1", 2, [(1, 1), (0, 1)]),
]
GLUE_TRUNCS = (4, 8, 16)
EXPLOG_TRUNC = 12
IDENTITY_TRUNC = 12

# eval: points per fan, one of which has a two-term last coordinate.  That
# op dies on the raw ValueError of scalar_inverse at this commit and is
# counted as failed, so the failed share is exactly 1 / EVAL_POINTS.
EVAL_POINTS = 4
PRIMES = (7, 11, 13, 17, 19)


# fans

def cpn_rays(n: int) -> list[tuple[int, ...]]:
    return [(1,) * n]


def product_rays(n: int, r: int) -> list[tuple[int, ...]]:
    """Extra rays of CP^r x CP^(n-r)."""
    return [(1,) * r + (0,) * (n - r), (0,) * r + (1,) * (n - r)]


def fan_doc(n: int, rays, energies=None) -> dict:
    doc = {"n": n, "extra_rays": [list(v) for v in rays]}
    if energies is not None:
        doc["energies"] = energies
    return doc


# exact series of this benchmark's own

def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _multinomial(parts) -> int:
    out = math.factorial(sum(parts))
    for j in parts:
        out //= math.factorial(j)
    return out


def _unit(a: int, m: int) -> tuple[int, ...]:
    return tuple(1 if j == a else 0 for j in range(m))


def clifford_series(n: int, rays) -> dict:
    """beta_1..beta_n plus one disk at infinity per extra ray, all with coefficient 1."""
    m = len(rays)
    zero_h = (0,) * m
    out = {(1, _unit(i, n - 1), zero_h): Fraction(1) for i in range(n - 1)}
    out[(1, (0,) * (n - 1), zero_h)] = Fraction(1)
    for a, v in enumerate(rays):
        out[(-sum(v), tuple(-x for x in v[: n - 1]), _unit(a, m))] = Fraction(1)
    return out


def chekanov_series(n: int, rays) -> dict:
    """beta_hat + sum_a beta'_a (1 + gamma_1 + ... + gamma_{n-1})^{p_a}, expanded
    by the multinomial theorem."""
    m = len(rays)
    out = {(1, (0,) * (n - 1), (0,) * m): Fraction(1)}
    for a, v in enumerate(rays):
        p = sum(v)
        h = _unit(a, m)
        for parts in _compositions(p, n):
            g = tuple(parts[k + 1] - v[k] for k in range(n - 1))
            key = (-p, g, h)
            out[key] = out.get(key, Fraction(0)) + _multinomial(parts)
    return out


def gamma_degree(cls) -> int:
    return sum(abs(x) for x in cls[1])


def truncate(series: dict, degree: int) -> dict:
    return {c: q for c, q in series.items() if gamma_degree(c) <= degree}


def forward_glue(series: dict, trunc: int) -> dict:
    """Plus-to-minus gluing of a series whose gamma offsets are all >= 0.

    Each term of class (b, g, h) is multiplied by f^(-b), whose coefficient
    at gamma^a is binom(-b, |a|) * multinomial(a) for every a >= 0; with
    g >= 0 the gamma-degree of the product is |g| + |a|, so enumerating
    |a| <= trunc - |g| gives every coefficient kept under the bound.  As in
    apply_gluing, the result is truncated only when some power is negative.
    """
    n1 = len(next(iter(series))[1])
    out: dict = {}
    any_negative = False
    for (b, g, h), q in series.items():
        e = -b
        any_negative |= e < 0
        reach = trunc - sum(g) if e < 0 else e
        for s in range(max(reach, -1) + 1):
            binom = Fraction(1)
            for i in range(s):
                binom = binom * (e - i) / (i + 1)
            for a in _compositions(s, n1):
                key = (b, tuple(x + y for x, y in zip(g, a)), h)
                out[key] = out.get(key, Fraction(0)) + q * binom * _multinomial(a)
    out = {c: q for c, q in out.items() if q}
    return truncate(out, trunc) if any_negative else out


# record I/O in the package's JSON shapes

def series_doc(n: int, m: int, series: dict) -> dict:
    terms = []
    for (b, g, h), q in sorted(series.items(), key=lambda kv: (kv[0][2], kv[0][0], kv[0][1])):
        terms.append({"b": b, "g": list(g), "h": list(h),
                      "coeff_numerator": q.numerator, "coeff_denominator": q.denominator})
    return {"n": n, "m": m, "terms": terms}


def parse_series_json(text: str) -> dict:
    doc = json.loads(text)
    return {
        (r["b"], tuple(r["g"]), tuple(r["h"])): Fraction(r["coeff_numerator"], r["coeff_denominator"])
        for r in doc["terms"]
    }


def series_lines(series: dict) -> str:
    """Canonical text of a series; library ops print their result this way."""
    rows = sorted([b, list(g), list(h), str(q)] for (b, g, h), q in series.items())
    return json.dumps(rows) + "\n"


_NAME_TERM = re.compile(r"(\d*)(?:H_(\d+)|(β̂)|γ_(\d+))")


def parse_class_name(name: str, n: int, m: int):
    """Invert opengw.fan.class_name, e.g. 'H_1 - 2β̂ + γ_1'."""
    b, g, h = 0, [0] * (n - 1), [0] * m
    sign = 1
    for tok in name.split(" "):
        if tok in ("+", "-"):
            sign = 1 if tok == "+" else -1
            continue
        if tok.startswith("-"):
            sign, tok = -1, tok[1:]
        mt = _NAME_TERM.fullmatch(tok)
        if mt is None:
            raise ValueError(f"cannot parse class name {name!r}")
        c = sign * int(mt[1] or 1)
        if mt[2]:
            h[int(mt[2]) - 1] += c
        elif mt[3]:
            b += c
        else:
            g[int(mt[4]) - 1] += c
        sign = 1
    return (b, tuple(g), tuple(h))


def parse_invariants(text: str, fmt: str, n: int, m: int) -> list:
    """Rendered invariant table -> [(class, maslov, n_beta)] in output order."""
    if fmt == "json":
        return [((row["b"], tuple(row["g"]), tuple(row["h"])), row["maslov"], row["n_beta"])
                for row in json.loads(text)]
    rows = []
    for line in text.splitlines()[1:]:
        if fmt == "csv":
            vals = [int(x) for x in line.split(",")]
            rows.append(((vals[0], tuple(vals[1:n]), tuple(vals[n:n + m])), vals[n + m], vals[n + m + 1]))
        else:
            name, maslov, count = re.split(r" {2,}", line)
            rows.append((parse_class_name(name, n, m), int(maslov), int(count)))
    return rows


# oracles: each takes the op's stdout and returns an error string, or None
# when the output is exact

def _diff(got: dict, want: dict) -> str | None:
    if got == want:
        return None
    missing = [c for c in want if c not in got][:3]
    extra = [c for c in got if c not in want][:3]
    wrong = [c for c in want if c in got and got[c] != want[c]][:3]
    return f"{len(got)} terms, want {len(want)}; missing {missing} extra {extra} wrong {wrong}"


def _closed_form_params(family: str, n: int, r, cls) -> dict:
    _, g, h = cls
    if not any(h):
        params = {"beta_hat": True}
    elif family == "cpn":
        params = {"k": g}
    else:
        params = {"branch": "H1" if h[0] else "H2", "k": g[0] if family == "f1" else g}
    if family == "cpn":
        params["n"] = n
    elif family == "cp_product":
        params.update(n=n, r=r)
    return params


def check_invariants(text, fmt, family, n, rays, r):
    from opengw import closed_form_invariant

    m = len(rays)
    rows = parse_invariants(text, fmt, n, m)
    got = {cls: Fraction(count) for cls, _, count in rows}
    if len(got) != len(rows):
        return "a class appears in more than one row"
    err = _diff(got, chekanov_series(n, rays))
    if err:
        return err
    if any(mu != 2 for _, mu, _ in rows):
        return "a row has Maslov index other than 2"
    if family == "cpn":
        total = sum(count for cls, _, count in rows if any(cls[2]))
        if total != n ** n:
            return f"sphere-class sum {total}, want {n ** n}"
    for cls, _, count in rows:
        if closed_form_invariant(family, _closed_form_params(family, n, r, cls)) != count:
            return f"row {cls}: {count} disagrees with closed_form_invariant"
    return None


def check_series(text, want: dict):
    return _diff(parse_series_json(text), want)


def check_text(text, want: str):
    return None if text == want else f"got {text[:80]!r}"


def check_round_trip(text, source: dict, trunc: int):
    return _diff(truncate(parse_series_json(text), trunc), truncate(source, trunc))


def check_eval(text, want: dict):
    doc = json.loads(text)
    if doc["cutoff"] is not None:
        return f"unexpected cutoff {doc['cutoff']}"
    got = {Fraction(t["exponent"]): Fraction(t["coefficient"]) for t in doc["terms"]}
    return _diff(got, want)


def eval_oracle(n: int, rays, energies: dict, point) -> dict:
    """Sum over Chekanov terms of coeff * T^E(c) * prod x_i^{d_i(c)}, where the
    boundary is d(c) = (-g_1, ..., -g_{n-1}, -b + sum g) and each coordinate
    x_i = c_i T^{e_i} is a monomial."""
    beta = Fraction(energies["beta_hat"])
    gam = [Fraction(x) for x in energies["gamma"]]
    hs = [Fraction(x) for x in energies["H"]]
    out: dict = {}
    for (b, g, h), q in chekanov_series(n, rays).items():
        w = [-x for x in g] + [-b + sum(g)]
        expo = beta * b + sum(x * y for x, y in zip(gam, g)) + sum(x * y for x, y in zip(hs, h))
        coeff = q
        for (c, e), wi in zip(point, w):
            expo += e * wi
            coeff *= c ** wi
        out[expo] = out.get(expo, Fraction(0)) + coeff
    return {e: c for e, c in out.items() if c}


def live_children() -> list[str]:
    """Pids of the running children of this process, from /proc."""
    found = []
    for task in Path("/proc/self/task").glob("*/children"):
        found += task.read_text().split()
    return found


# seeded generators

def _rand_frac(rng, lo: int, hi: int, dens=(1, 2, 3)) -> Fraction:
    while True:
        q = Fraction(rng.randint(lo, hi), rng.choice(dens))
        if q:
            return q


class Plan:
    """Files to write in set-up, the ops of one pass, and each op's oracle.

    An op marked ``known_failure`` has no oracle: it is expected to fail at
    this commit with exactly that error, and is counted, not checked.
    """

    def __init__(self):
        self.files: dict[str, str] = {}
        self.ops: list[dict] = []
        self.checks: dict[str, partial] = {}

    def add(self, op: dict, check: partial | None):
        self.ops.append(op)
        if check is not None:
            self.checks[op["id"]] = check


def build_invariants(rng) -> Plan:
    plan = Plan()
    fans = [(f"cp{n}", "cpn", n, cpn_rays(n), None) for n in range(1, 9)]
    fans.append(("f1", "f1", 2, [(1, 1), (0, 1)], None))
    pairs = [(n, r) for n in range(2, 8) for r in range(1, n)]
    for n, r in sorted(rng.sample(pairs, 4)):
        fans.append((f"cp{r}xcp{n - r}", "cp_product", n, product_rays(n, r), r))
    for label, family, n, rays, r in fans:
        # CP^8 in JSON is the named heavy op, so its format is fixed
        fmt = "json" if label == "cp8" else rng.choice(FORMATS)
        path = f"{label}.json"
        plan.files[path] = json.dumps(fan_doc(n, rays))
        op = {"id": f"{label}-{fmt}", "kind": "cli",
              "argv": ["invariants", path, "--format", fmt], "heavy": label == "cp8"}
        plan.add(op, partial(check_invariants, fmt=fmt, family=family, n=n, rays=rays, r=r))
    return plan


def _signed_series(rng, n: int, m: int, terms: int) -> dict:
    # the signed_class_series distribution of tests/test_wallcross.py
    out: dict = {}
    while len(out) < terms:
        cls = (rng.randint(-3, 3), tuple(rng.randint(0, 3) for _ in range(n - 1)),
               tuple(rng.randint(-1, 2) for _ in range(m)))
        den = rng.choice((1, 2, 3))
        q = Fraction(rng.randint(-4 * den, 4 * den), den)
        if q:
            out[cls] = q
    return out


def build_gluing(rng) -> Plan:
    plan = Plan()
    for label, n, rays in GLUE_FANS:
        m = len(rays)
        plan.files[f"{label}.json"] = json.dumps(fan_doc(n, rays))
        cliff, chek = clifford_series(n, rays), chekanov_series(n, rays)
        plan.files[f"{label}-clifford.json"] = json.dumps(series_doc(n, m, cliff))
        plan.files[f"{label}-chekanov.json"] = json.dumps(series_doc(n, m, chek))
        for t in GLUE_TRUNCS:
            plan.add({"id": f"{label}-fwd-{t}", "kind": "cli",
                      "argv": ["glue", f"{label}.json", "--input", f"{label}-clifford.json",
                               "--direction", "plus-to-minus", "--truncate", str(t),
                               "--format", "json"]},
                     partial(check_series, want=truncate(chek, t)))
            plan.add({"id": f"{label}-rev-{t}", "kind": "cli",
                      "argv": ["glue", f"{label}.json", "--input", f"{label}-chekanov.json",
                               "--direction", "minus-to-plus", "--truncate", str(t),
                               "--format", "json"],
                      "heavy": label == "cp2xcp3" and t == 16},
                     partial(check_series, want=truncate(cliff, t)))
    plan.files["cp3.json"] = json.dumps(fan_doc(3, cpn_rays(3)))
    for i in range(8):
        s = _signed_series(rng, 3, 1, 4)
        t = rng.randint(2, 8)
        src, mid = f"signed{i}.json", f"signed{i}-fwd.json"
        plan.files[src] = json.dumps(series_doc(3, 1, s))
        plan.add({"id": f"signed{i}-fwd-{t}", "kind": "cli", "stdout_to": mid,
                  "argv": ["glue", "cp3.json", "--input", src, "--direction", "plus-to-minus",
                           "--truncate", str(t), "--format", "json"]},
                 partial(check_series, want=forward_glue(s, t)))
        plan.add({"id": f"signed{i}-back-{t}", "kind": "cli",
                  "argv": ["glue", "cp3.json", "--input", mid, "--direction", "minus-to-plus",
                           "--truncate", str(t), "--format", "json"]},
                 partial(check_round_trip, source=s, trunc=t))
    return plan


def build_identity(rng) -> Plan:
    # a pass takes about 10 s; three of them sample the machine about as
    # long as the two 20 s passes of gluing
    plan = Plan()
    for n in range(1, 7):
        plan.add({"id": f"identity-n{n}", "kind": "identity", "n": n,
                  "trunc": IDENTITY_TRUNC, "heavy": n == 6},
                 partial(check_text, want="True\n"))
    for i in range(6):
        n, m = rng.choice([(3, 1), (4, 1), (4, 2)])
        f = {(0, (0,) * (n - 1), (0,) * m): Fraction(1)}
        while len(f) < 4:
            g = tuple(rng.randint(0, 2) for _ in range(n - 1))
            if any(g):
                cls = (rng.randint(-2, 2), g, tuple(rng.randint(0, 1) for _ in range(m)))
                f[cls] = _rand_frac(rng, -6, 6, (1, 2, 3))
        records = [[b, list(g), list(h), str(q)] for (b, g, h), q in f.items()]
        plan.add({"id": f"explog{i}", "kind": "explog", "n": n, "m": m,
                  "trunc": EXPLOG_TRUNC, "terms": records},
                 partial(check_text, want=series_lines(truncate(f, EXPLOG_TRUNC))))
    return plan


def _energies(rng, n: int, rays) -> dict:
    beta = _rand_frac(rng, 1, 9, (2, 3))
    # E(gamma_k) with distinct prime denominators above every exponent the
    # Chekanov terms reach, and integer point exponents, keep the T-exponents
    # of distinct terms apart: each op then sums the full support
    gam = []
    for p in PRIMES[: n - 1]:
        u = rng.randint(1, 3 * p)
        gam.append(Fraction(u + (u % p == 0), p))
    hs = []
    for v in rays:
        # E(beta'_a) = E(H_a) - p_a E(beta_hat) - sum_k v_ak E(gamma_k) must be > 0
        floor = sum(v) * beta + sum(x * y for x, y in zip(v, gam))
        hs.append(floor + _rand_frac(rng, 1, 9, (2, 3)))
    return {"beta_hat": str(beta), "gamma": [str(x) for x in gam], "H": [str(x) for x in hs]}


def build_eval(rng) -> Plan:
    plan = Plan()
    fans = [(f"cp{n}", n, cpn_rays(n)) for n in range(2, 7)]
    fans.append(("f1", 2, [(1, 1), (0, 1)]))
    pairs = [(n, r) for n in range(2, 6) for r in range(1, n)]
    for n, r in sorted(rng.sample(pairs, 2)):
        fans.append((f"cp{r}xcp{n - r}", n, product_rays(n, r)))
    for label, n, rays in fans:
        energies = _energies(rng, n, rays)
        plan.files[f"{label}.json"] = json.dumps(fan_doc(n, rays, energies))
        size = len(chekanov_series(n, rays))
        multi = rng.randrange(EVAL_POINTS)
        for j in range(EVAL_POINTS):
            while True:
                point = [(_rand_frac(rng, -5, 5), Fraction(rng.randint(-3, 3))) for _ in range(n)]
                want = eval_oracle(n, rays, energies, point)
                if len(want) == size:
                    break
            lits = [f"{c}*T^{e}" for c, e in point]
            # the single-term CP^6 points are the heavy op, timed together
            op = {"id": f"{label}-p{j}", "kind": "cli", "heavy": label == "cp6" and j != multi}
            if j == multi:
                lits[-1] += f"+{_rand_frac(rng, -5, 5)}*T^{point[-1][1] + rng.randint(1, 3)}"
                # the raw error of scalar_inverse (ROADMAP item 4), as worker.py records it
                op["known_failure"] = "ValueError: inverse of an exact multi-term scalar needs a cutoff"
            op["argv"] = ["eval", f"{label}.json", "--point", ",".join(lits), "--format", "json"]
            plan.add(op, None if j == multi else partial(check_eval, want=want))
    return plan


# workload name -> plan maker, in the order BENCHMARK.json lists them
WORKLOADS = {
    "invariants": build_invariants,
    "gluing": build_gluing,
    "identity": build_identity,
    "eval": build_eval,
}

