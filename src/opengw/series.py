"""Exact series arithmetic over relative disk classes.

A ClassSeries is a finitely supported rational combination of RelClass
monomials.  Each monomial stands for T^{E(class)} Y^{d(class)}, so keeping
the class itself keeps the energy and boundary bookkeeping symbolic; the
novikov module instantiates numbers later.

Truncation is graded by gamma-degree (total absolute gamma coefficient).
That grading is only multiplicative when the gamma supports being combined
are sign-compatible coordinate by coordinate; exp, log, and negative powers
check this and refuse otherwise, because a truncated expansion would then
silently drop low-order terms.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .errors import DimensionMismatch, NotFiltered, NotInvertible, SchemaError
from .fan import RelClass

DEFAULT_TRUNC = 16


class ClassSeries:
    """Finitely supported map RelClass -> Fraction with ambient shape (n, m)."""

    __slots__ = ("n", "m", "_terms")

    def __init__(self, n: int, m: int, terms: Mapping[RelClass, Fraction] | None = None):
        self.n = n
        self.m = m
        clean: dict[RelClass, Fraction] = {}
        if terms:
            for cls, coeff in terms.items():
                if len(cls.g) != n - 1 or len(cls.h) != m:
                    raise DimensionMismatch(f"class {cls} does not fit shape ({n}, {m})")
                q = Fraction(coeff)
                if q:
                    clean[cls] = q
        self._terms = clean

    def items(self) -> list[tuple[RelClass, Fraction]]:
        """Terms in canonical order: lexicographic on (h, b, g)."""
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key)

    def coeff(self, cls: RelClass) -> Fraction:
        return self._terms.get(cls, Fraction(0))

    def support(self) -> list[RelClass]:
        return [c for c, _ in self.items()]

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ClassSeries)
            and self.n == other.n
            and self.m == other.m
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.n, self.m, frozenset(self._terms.items())))

    def __add__(self, other: "ClassSeries") -> "ClassSeries":
        self._check_context(other)
        out = dict(self._terms)
        for cls, coeff in other._terms.items():
            out[cls] = out.get(cls, Fraction(0)) + coeff
        return ClassSeries(self.n, self.m, out)

    def __neg__(self) -> "ClassSeries":
        return ClassSeries(self.n, self.m, {c: -q for c, q in self._terms.items()})

    def __sub__(self, other: "ClassSeries") -> "ClassSeries":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, ClassSeries):
            return multiply(self, other)
        return self.scaled(other)

    def __rmul__(self, other):
        return self.scaled(other)

    def scaled(self, q) -> "ClassSeries":
        q = Fraction(q)
        return ClassSeries(self.n, self.m, {c: q * v for c, v in self._terms.items()})

    def max_gamma_degree(self) -> int:
        return max((c.gamma_degree for c in self._terms), default=0)

    def __repr__(self):
        body = " + ".join(f"{q}*[{c}]" for c, q in self.items()) or "0"
        return f"<ClassSeries ({self.n},{self.m}) {body}>"

    def _check_context(self, other: "ClassSeries"):
        if self.n != other.n or self.m != other.m:
            raise DimensionMismatch(
                f"series shapes ({self.n},{self.m}) and ({other.n},{other.m}) differ"
            )


def _raw(n: int, m: int, terms: dict[RelClass, Fraction]) -> ClassSeries:
    # Internal fast path: caller guarantees shapes match and values are
    # nonzero Fractions, so the constructor's per-term validation is skipped.
    s = ClassSeries.__new__(ClassSeries)
    s.n = n
    s.m = m
    s._terms = terms
    return s


def zero(n: int, m: int) -> ClassSeries:
    return ClassSeries(n, m)


def one(n: int, m: int) -> ClassSeries:
    return monomial(n, m, RelClass(0, (0,) * (n - 1), (0,) * m))


def monomial(n: int, m: int, cls: RelClass, coeff=Fraction(1)) -> ClassSeries:
    return ClassSeries(n, m, {cls: Fraction(coeff)})


def multiply(f: ClassSeries, g: ClassSeries) -> ClassSeries:
    """Exact convolution product; classes add, coefficients multiply."""
    f._check_context(g)
    out: dict[RelClass, Fraction] = {}
    zero_q = Fraction(0)
    for c1, q1 in f._terms.items():
        for c2, q2 in g._terms.items():
            key = c1 + c2
            out[key] = out.get(key, zero_q) + q1 * q2
    return _raw(f.n, f.m, {c: q for c, q in out.items() if q})


def _multiply_bounded(f: ClassSeries, g: ClassSeries, trunc: int) -> ClassSeries:
    # Convolution that discards pairs whose combined gamma-degree exceeds
    # trunc BEFORE multiplying.  Valid only when both factors live in a
    # single closed sign orthant of gamma space (then degrees add exactly);
    # exp, log, and negative powers establish that before calling.
    by_deg_f: dict[int, list[tuple[RelClass, Fraction]]] = {}
    for c, q in f._terms.items():
        by_deg_f.setdefault(c.gamma_degree, []).append((c, q))
    by_deg_g: dict[int, list[tuple[RelClass, Fraction]]] = {}
    for c, q in g._terms.items():
        by_deg_g.setdefault(c.gamma_degree, []).append((c, q))
    out: dict[RelClass, Fraction] = {}
    zero_q = Fraction(0)
    for d1, terms1 in by_deg_f.items():
        for d2, terms2 in by_deg_g.items():
            if d1 + d2 > trunc:
                continue
            for c1, q1 in terms1:
                for c2, q2 in terms2:
                    key = c1 + c2
                    out[key] = out.get(key, zero_q) + q1 * q2
    return _raw(f.n, f.m, {c: q for c, q in out.items() if q})


def truncate_gamma(f: ClassSeries, degree: int) -> ClassSeries:
    """Drop every term of gamma-degree above the given bound."""
    return ClassSeries(
        f.n, f.m, {c: q for c, q in f._terms.items() if c.gamma_degree <= degree}
    )


def power(f: ClassSeries, k: int, trunc: int | None = None) -> ClassSeries:
    """f**k.  Nonnegative k is exact and ignores trunc; negative k returns
    the inverse-power expansion with all retained terms of gamma-degree at
    most trunc (default DEFAULT_TRUNC)."""
    if k >= 0:
        result = one(f.n, f.m)
        base = f
        e = k
        while e:
            if e & 1:
                result = multiply(result, base)
            e >>= 1
            if e:
                base = multiply(base, base)
        return result
    if trunc is None:
        trunc = DEFAULT_TRUNC
    # every term of f**k sits in the orthant of f, where grade = gamma-degree
    return divide_by_power(one(f.n, f.m), f, -k, trunc)


def divide_by_power(p: ClassSeries, f: ClassSeries, k: int, trunc: int) -> ClassSeries:
    """p / f**k, exact on every class of gamma-degree at most trunc.

    f = 1 + u must have constant term exactly 1 and u one closed sign
    orthant sigma of gamma space, u free of gamma-degree 0.  Terms are
    graded by L(c) = sum_k sigma_k g_k: L adds under products, L(t) >= 1
    on u, and |g| >= L(g), so a class with L > trunc never has
    gamma-degree <= trunc.  Each division by f solves

        Q_l = P_l - sum_{t in u} u_t Q_{l - L(t)}

    upward from the lowest grade of P to trunc, stopping early once P is
    used up and the last max L(t) buckets of Q are empty; an exact
    quotient therefore costs about its own size.  The result holds every
    term of L-grade <= trunc and may hold some of gamma-degree above trunc.
    """
    f._check_context(p)
    if f.coeff(RelClass(0, (0,) * (f.n - 1), (0,) * f.m)) != 1:
        raise NotInvertible("inverse powers need constant term exactly 1")
    u = {c: q for c, q in f._terms.items() if not c.is_zero()}
    sigma = _require_positive_filtration(_raw(f.n, f.m, u), "negative power")

    def grade(c: RelClass) -> int:
        return sum(s * x for s, x in zip(sigma, c.g))

    u_by_grade: dict[int, list[tuple[RelClass, Fraction]]] = {}
    for c, q in u.items():
        u_by_grade.setdefault(grade(c), []).append((c, q))
    reach = max(u_by_grade, default=0)
    zero_q = Fraction(0)
    terms = p._terms
    for _ in range(k):
        rhs: dict[int, dict[RelClass, Fraction]] = {}
        for c, q in terms.items():
            d = grade(c)
            if d <= trunc:
                rhs.setdefault(d, {})[c] = q
        if not rhs:
            return _raw(p.n, p.m, {})
        top = max(rhs)
        quot: dict[int, dict[RelClass, Fraction]] = {}
        for d in range(min(rhs), trunc + 1):
            if d > top and all(d - j not in quot for j in range(1, reach + 1)):
                break
            acc = dict(rhs.get(d, ()))
            for j, ut in u_by_grade.items():
                prev = quot.get(d - j)
                if not prev:
                    continue
                for c1, q1 in ut:
                    for c2, q2 in prev.items():
                        key = c1 + c2
                        acc[key] = acc.get(key, zero_q) - q1 * q2
            bucket = {c: q for c, q in acc.items() if q}
            if bucket:
                quot[d] = bucket
        # a class appears only in the bucket of its own grade
        terms = {}
        for bucket in quot.values():
            terms.update(bucket)
    return _raw(p.n, p.m, terms)


def series_exp(f: ClassSeries, trunc: int = DEFAULT_TRUNC) -> ClassSeries:
    """exp(f), exact on gamma-degree <= trunc.

    Solved degree by degree from theta(exp f) = theta(f) exp(f), where
    theta rescales each monomial by its gamma-degree.  One graded
    convolution instead of trunc Taylor passes over a dense series.
    """
    _require_positive_filtration(f, "exp")
    # theta(f), bucketed by gamma-degree
    df: dict[int, list[tuple[RelClass, Fraction]]] = {}
    for c, q in f._terms.items():
        d = c.gamma_degree
        if d <= trunc:
            df.setdefault(d, []).append((c, q * d))
    # A class appears only in the bucket of its own gamma-degree, so the
    # buckets partition the support of the result.
    by_deg: dict[int, dict[RelClass, Fraction]] = {
        0: {RelClass(0, (0,) * (f.n - 1), (0,) * f.m): Fraction(1)}
    }
    zero_q = Fraction(0)
    for d in range(1, trunc + 1):
        acc: dict[RelClass, Fraction] = {}
        for j, terms in df.items():
            prev = by_deg.get(d - j)
            if j > d or not prev:
                continue
            for c1, q1 in terms:
                for c2, q2 in prev.items():
                    key = c1 + c2
                    acc[key] = acc.get(key, zero_q) + q1 * q2
        bucket = {c: q / d for c, q in acc.items() if q}
        if bucket:
            by_deg[d] = bucket
    total: dict[RelClass, Fraction] = {}
    for bucket in by_deg.values():
        total.update(bucket)
    return _raw(f.n, f.m, total)


def series_log(f: ClassSeries, trunc: int = DEFAULT_TRUNC) -> ClassSeries:
    """log(f) for f with constant term exactly 1, exact on gamma-degree <= trunc."""
    if f.coeff(RelClass(0, (0,) * (f.n - 1), (0,) * f.m)) != 1:
        raise NotInvertible("log needs constant term exactly 1")
    u = f - one(f.n, f.m)
    if not u:
        return zero(f.n, f.m)
    _require_positive_filtration(u, "log")
    result = zero(f.n, f.m)
    upow = one(f.n, f.m)
    for j in range(1, trunc + 1):
        upow = _multiply_bounded(upow, u, trunc)
        if not upow:
            break
        result = result + upow.scaled(Fraction((-1) ** (j + 1), j))
    return result


def _require_positive_filtration(u: ClassSeries, what: str) -> tuple[int, ...]:
    # All terms must sit in gamma-degree >= 1 and in one closed sign orthant
    # of gamma space; otherwise products can fall back to low gamma-degree
    # and the truncated expansion would be wrong, not just incomplete.
    # Returns the orthant's sign per gamma coordinate (+1 where unused).
    pos = [False] * (u.n - 1)
    neg = [False] * (u.n - 1)
    for c in u._terms:
        if c.gamma_degree == 0:
            raise NotFiltered(f"{what}: term {c} has gamma-degree 0")
        for k, gk in enumerate(c.g):
            if gk > 0:
                pos[k] = True
            elif gk < 0:
                neg[k] = True
    for k in range(u.n - 1):
        if pos[k] and neg[k]:
            raise NotFiltered(
                f"{what}: gamma_{k + 1} appears with both signs, "
                "gamma-degree truncation would drop low-order terms"
            )
    return tuple(-1 if neg[k] else 1 for k in range(u.n - 1))


# canonical serialization

def to_records(f: ClassSeries) -> list[dict]:
    return [
        {
            "b": c.b,
            "g": list(c.g),
            "h": list(c.h),
            "coeff_numerator": q.numerator,
            "coeff_denominator": q.denominator,
        }
        for c, q in f.items()
    ]


def _record_int(v, what: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(f"series record {what} must be an integer, got {v!r}")
    return v


def _record_int_vec(v, what: str) -> tuple[int, ...]:
    if not isinstance(v, (list, tuple)):
        raise SchemaError(f"series record {what} must be an array of integers, got {v!r}")
    return tuple(_record_int(x, f"{what} entry") for x in v)


def from_records(n: int, m: int, records: Iterable[Mapping]) -> ClassSeries:
    """Inverse of to_records.  Every field must be a genuine integer (no
    bool, float or string) and the denominator nonzero; anything else is a
    SchemaError, never a silent rounding."""
    terms: dict[RelClass, Fraction] = {}
    for rec in records:
        if not isinstance(rec, Mapping):
            raise SchemaError(f"series record must be an object, got {rec!r}")
        extra = set(rec) - {"b", "g", "h", "coeff_numerator", "coeff_denominator"}
        if extra:
            raise SchemaError(f"unknown series record keys {sorted(extra)}")
        try:
            cls = RelClass(
                _record_int(rec["b"], "b"),
                _record_int_vec(rec["g"], "g"),
                _record_int_vec(rec["h"], "h"),
            )
            num = _record_int(rec["coeff_numerator"], "coeff_numerator")
            den = _record_int(rec["coeff_denominator"], "coeff_denominator")
        except KeyError as exc:
            raise SchemaError(f"bad series record {rec!r}: missing key {exc}") from exc
        if den == 0:
            raise SchemaError(f"bad series record {rec!r}: coeff_denominator is 0")
        if len(cls.g) != n - 1 or len(cls.h) != m:
            raise SchemaError(f"series record shape does not match fan ({n}, {m})")
        terms[cls] = terms.get(cls, Fraction(0)) + Fraction(num, den)
    return ClassSeries(n, m, terms)
