"""Exact series arithmetic over relative disk classes.

A ClassSeries is a finitely supported rational combination of RelClass
monomials.  Each monomial stands for T^{E(class)} Y^{d(class)}, so keeping
the class itself keeps the energy and boundary bookkeeping symbolic; the
novikov module instantiates numbers later.

Truncation is graded by gamma-degree (total absolute gamma coefficient).
That grading is only multiplicative when the gamma supports being combined
are sign-compatible coordinate by coordinate; exp, log and division check
this and refuse otherwise, because a truncated expansion would then
silently drop low-order terms.

Every hot loop runs on one packed kernel.  A class is an integer key
with one balanced radix-2^w digit per coordinate, h_1 the most
significant, then h_2 .. h_m, b, g_1 .. g_{n-1}, w sized from a bound on
every coordinate the operation can form, so adding keys adds classes and
int order of keys is the canonical (h, b, g) order of classes;
coefficients are int numerators over one common denominator per
operand.  Each kernel entry reads its operands' keys off the series.  A
key moves to the wider packer of an operation digit by digit, with no
class built, and the grade L of a term (below) is a sum over the gamma
digit columns of all the operand's keys at once.  Outside the solve
below, every sum of products
of (den, nums) buckets, multiply included, is _products: one convolution
per pair over the pairs' common denominator.  divide_by_power,
series_exp, series_log and Miller's powers are one weighted triangular
solve, graded by the linear form L of the gamma orthant,

    X_l = R_l + sum_j (p/q) A_j X_{l-j},   (p, q) = weight(j, l),

with one denominator per grade bucket, buckets combined over the lcm and
reduced by their gcd.  For f = 1 + u the callers supply

    _times_powers     R = 1            weight ((k + 1) j - l, l)
    divide_by_power   R = the source   weight (-1, 1)
    series_exp        R = 1            weight (j, l)
    series_log        R = u            weight (j - l, l)

_times_powers sums p f**k over its parts in one packed pass, one solve
per distinct k.  times_powers(parts, f) calls it on class keys, with
times_power(p, f, k) as its one-part call, and
wallcross.evaluate_chekanov on T-exponent keys; the Chekanov
superpotential beta_hat f**0 + sum_a beta'_a f**p_a is one times_powers
call on one packer.  An f without a graded unit tail is
raised by square-and-multiply instead.  The wall-crossing identity's
p exp(-log f), _times_exp_neg_log, chains two solves on one packer:

    L = log f         R = u            weight (j - l, l)
    E = exp(-L)       R = 1, A = -L    weight (j, l)

with L's buckets negated in place, then convolves p into E only where
the L-grades add up to at most trunc.

The exp solves (series_exp and E above) hold their buckets as rows,
Kronecker substitution: a bucket is homogeneous in L, so moving along a
row's step, +1 on sigma_c x_c and -1 on sigma_d x_d for two gamma digits
c and d, keeps the grade.  A key sits in the row under outer = key - t
step, in slot t = sigma_c x_c >= 0, and leaves as outer + t step; the
terms sharing an outer key are one int with a signed S-bit slot per t,
so _convolve multiplies whole rows.  S starts at 64 and widens,
repacking the rows, whenever a grade's bound

    sum |R| den / r_den + sum_j |scale_j| sum |A_j| sum |X_{l-j}|

reaches 2^(S-2), so no slot overflows whatever the signs.  Slots are read
back only for each grade's gcd and on output.  Only the exp solves use
rows: their coefficient is the dense exponent, while the log, power,
division and Chekanov-evaluation solves have the sparse unit tail u as
coefficient, where rows measured slower.

Every ClassSeries is one packed operand, set when it is made and never
changed: a packer, one common denominator and a nonzero int numerator
per key.  The constructor packs its terms once; every kernel result and
parsed series (from_records) goes through _unpacked, which merges the
solve's grade buckets over their lcm and drops cancelled terms.  len and
bool read the numerators; +, - and truncate_gamma are _packed_sum, which
adds packed parts on the widest of their packers and drops terms above
a gamma-degree off their gamma columns; scaled scales the numerators
and the denominator; coeff packs the one class asked about.  None of
them reduces by the gcd, so == and hash read ClassSeries.columns: it
sorts the int keys and splits their digits into one int column per
coordinate (_Packer.columns, the only decoder of keys), with the
numerators over their reduced common denominator.  Invariant tables and
rendered series are read that way.  Gluing never leaves the keys
either: _split_b groups a series by its b digit column, each group a
packed series on the same packer.  items() alone builds a RelClass and
a Fraction per term, on each call, from the digit columns
(fan._classes), with equal numerators sharing one Fraction.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Collection, Iterable, Mapping
from fractions import Fraction
from itertools import chain, compress
from operator import add, attrgetter, countOf, itemgetter, neg, sub

from .errors import BadParams, DimensionMismatch, NotFiltered, NotInvertible, SchemaError
from .fan import RelClass, _classes, require_int, require_ints, require_rational

DEFAULT_TRUNC = 16


class ClassSeries:
    """Finitely supported map RelClass -> Fraction with ambient shape (n, m).

    n >= 1 and m >= 0 must be genuine integers, every key a RelClass of the
    shape and every coefficient pass fan.require_rational, so a float is
    rejected, never rounded.

    A series is one packed operand, set when it is made and never changed
    (module docstring): its packer, a common denominator and int
    numerators by key, none of them zero.  +, -, scaled, truncate_gamma,
    coeff, len, bool, == and columns all work on the keys; items() builds
    a RelClass and a Fraction per term on each call.
    """

    __slots__ = ("n", "m", "_packed")

    def __init__(self, n: int, m: int, terms: Mapping[RelClass, Fraction] | None = None):
        self.n, self.m = _shape(n, m)
        clean: dict[RelClass, Fraction] = {}
        if terms:
            for cls, coeff in terms.items():
                _require_class(cls)
                if len(cls.g) != n - 1 or len(cls.h) != m:
                    raise DimensionMismatch(f"class {cls} does not fit shape ({n}, {m})")
                q = require_rational(coeff, "series coefficient")
                if q:
                    clean[cls] = q
        packer = _Packer(n, m, _coord_bound(clean))
        self._packed = _Operand(packer, *_ints(clean, packer.pack))

    def items(self) -> list[tuple[RelClass, Fraction]]:
        """Terms in canonical order: lexicographic on (h, b, g)."""
        packer, den, nums = self._packed
        keys, nums = _sorted(nums)
        # terms with equal numerators share one Fraction
        fractions = {v: Fraction(v, den) for v in set(nums)}
        return list(zip(_classes(self.m, packer.columns(keys)), map(fractions.__getitem__, nums)))

    def columns(self) -> tuple[list[list[int]], int, list[int]]:
        """The terms in canonical order as (columns, den, nums): one int
        column per coordinate h_1 .. h_m, b, g_1 .. g_{n-1}, and each
        term's coefficient nums[i] / den over their reduced common
        denominator, so equal series read equal columns.

        No RelClass or Fraction is built.
        """
        packer, den, nums = self._packed
        keys, nums = _sorted(nums)
        g = math.gcd(den, *nums)
        if g > 1:
            den //= g
            nums = [v // g for v in nums]
        return packer.columns(keys), den, nums

    def coeff(self, cls: RelClass) -> Fraction:
        # a class of another shape, or with a coordinate beyond the
        # packer's bound, has no key on it and is not a term
        _require_class(cls)
        packer, den, nums = self._packed
        if (len(cls.g) != self.n - 1 or len(cls.h) != self.m
                or _coord_bound([cls]) > packer.bound):
            return Fraction(0)
        return Fraction(nums.get(packer.pack(cls), 0), den)

    def __len__(self) -> int:
        return len(self._packed.nums)

    def __bool__(self) -> bool:
        return bool(self._packed.nums)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ClassSeries)
            and self.n == other.n
            and self.m == other.m
            and self.columns() == other.columns()
        )

    def __hash__(self):
        cols, den, nums = self.columns()
        return hash((self.n, self.m, tuple(map(tuple, cols)), den, tuple(nums)))

    def __add__(self, other: "ClassSeries") -> "ClassSeries":
        _check_context(self, other)
        return _packed_sum(self.n, self.m, [self, other])

    def __neg__(self) -> "ClassSeries":
        return self.scaled(-1)

    def __sub__(self, other: "ClassSeries") -> "ClassSeries":
        _check_context(self, other)
        return _packed_sum(self.n, self.m, [self, -other])

    def __mul__(self, other):
        if isinstance(other, ClassSeries):
            return multiply(self, other)
        return self.scaled(other)

    def __rmul__(self, other):
        return self.scaled(other)

    def scaled(self, q) -> "ClassSeries":
        q = require_rational(q, "scale factor")
        packer, den, nums = self._packed
        p = q.numerator
        return _unpacked(self.n, self.m, packer,
                         {0: (den * q.denominator, {key: v * p for key, v in nums.items()})})

    def __repr__(self):
        body = " + ".join(f"{q}*[{c}]" for c, q in self.items()) or "0"
        return f"<ClassSeries ({self.n},{self.m}) {body}>"


def _require_series(f):
    if not isinstance(f, ClassSeries):
        raise BadParams(f"series operand must be a ClassSeries, got {f!r}")


def _check_context(f: ClassSeries, g: ClassSeries):
    # both operands are series of one shape
    _require_series(f)
    _require_series(g)
    if f.n != g.n or f.m != g.m:
        raise DimensionMismatch(f"series shapes ({f.n},{f.m}) and ({g.n},{g.m}) differ")


def _shape(n, m) -> tuple[int, int]:
    # the checked shape (n, m) of a series
    n = require_int(n, "series n")
    m = require_int(m, "series m")
    if n < 1 or m < 0:
        raise BadParams(f"series shape needs n >= 1 and m >= 0, got ({n}, {m})")
    return n, m


def _require_class(cls):
    if not isinstance(cls, RelClass):
        raise BadParams(f"series key must be a RelClass, got {cls!r}")


_B, _G, _H = attrgetter("b"), attrgetter("g"), attrgetter("h")


def zero(n: int, m: int) -> ClassSeries:
    return ClassSeries(n, m)


def one(n: int, m: int) -> ClassSeries:
    return monomial(n, m, RelClass(0, (0,) * (n - 1), (0,) * m))


def monomial(n: int, m: int, cls: RelClass, coeff=Fraction(1)) -> ClassSeries:
    return ClassSeries(n, m, {cls: coeff})


def multiply(f: ClassSeries, g: ClassSeries) -> ClassSeries:
    """Exact convolution product; classes add, coefficients multiply."""
    _check_context(f, g)
    a, b = f._packed, g._packed
    packer = _Packer(f.n, f.m, a.packer.bound + b.packer.bound)
    prod = _products([(_moved(a, packer), _moved(b, packer))])
    return _unpacked(f.n, f.m, packer, {0: prod})


def truncate_gamma(f: ClassSeries, degree: int) -> ClassSeries:
    """Drop every term of gamma-degree above the given bound."""
    degree = require_int(degree, "gamma-degree bound")
    _require_series(f)
    return _packed_sum(f.n, f.m, [f], degree)


def power(f: ClassSeries, k: int) -> ClassSeries:
    """f**k for k >= 0, exact: times_power(1, f, k)."""
    _require_series(f)
    return times_power(one(f.n, f.m), f, k)


def times_power(p: ClassSeries, f: ClassSeries, k: int) -> ClassSeries:
    """p * f**k for k >= 0, exact: times_powers([(p, k)], f)."""
    return times_powers([(p, k)], f)


def times_powers(parts: Iterable[tuple[ClassSeries, int]], f: ClassSeries) -> ClassSeries:
    """sum p * f**k over the (p, k) in parts, every k >= 0, exact, in one
    packed pass.

    When f = 1 + u with u in one closed gamma orthant and free of
    gamma-degree 0 (every gluing factor), each f**k is Miller's recurrence
    (_times_powers), solved once per distinct k, and each p is convolved
    into the grade buckets of its power.  Any other f is raised by
    square-and-multiply, once per distinct k.  Every product lands in one
    bucket on one packer.  The p and f are read as packed keys and moved
    to that packer digit by digit.
    """
    _require_series(f)
    checked = []
    for p, k in parts:
        _check_context(p, f)
        k = require_int(k, "exponent")
        if k < 0:
            raise BadParams(f"times_power needs an exponent >= 0, got {k}")
        checked.append((p._packed, k))
    fop = f._packed
    # a term of p * f**k is a term of p plus k terms of f
    bound = max((op.packer.bound + k * fop.packer.bound for op, k in checked), default=0)
    packer = _Packer(f.n, f.m, bound)
    packed = [(_moved(op, packer), k) for op, k in checked]
    try:
        tail = _unit_tail(f, "power")
        sigma = _orthant(tail, "power")
    except (NotInvertible, NotFiltered):
        base = _moved(fop, packer)
        powers = {k: _packed_power(base, k) for k in {k for _, k in packed}}
        prod = _products([(p, powers[k]) for p, k in packed])
    else:
        prod = _times_powers(packed, _graded(tail, sigma, packer))
    return _unpacked(f.n, f.m, packer, {0: prod})


def divide_by_power(p: ClassSeries, f: ClassSeries, k: int, trunc: int) -> ClassSeries:
    """p / f**k, exact on every class of gamma-degree at most trunc.

    f = 1 + u must have constant term exactly 1 and u one closed sign
    orthant sigma of gamma space, u free of gamma-degree 0.  Terms are
    graded by L(c) = sum_k sigma_k g_k: L adds under products, L(t) >= 1
    on u, and |g| >= L(g), so a class with L > trunc never has
    gamma-degree <= trunc.  Each division by f is the graded solve

        Q_l = P_l - sum_{t in u} u_t Q_{l - L(t)}

    upward from the lowest grade of P to trunc, stopping early once P is
    used up and the last max L(t) buckets of Q are empty; an exact
    quotient therefore costs about its own size.  The result holds every
    term of L-grade <= trunc and may hold some of gamma-degree above trunc.
    p is read as packed keys, graded over its gamma digit
    columns, and moved to the quotient's packer digit by digit.
    """
    _check_context(f, p)
    k = require_int(k, "exponent")
    trunc = require_int(trunc, "truncation bound")
    if k < 0:
        raise BadParams(f"divide_by_power needs an exponent >= 0, got {k}")
    tail = _unit_tail(f, "negative power")
    sigma = _orthant(tail, "negative power")
    p_op = p._packed
    cols = p_op.packer.columns(p_op.nums)
    grades = _grades(cols[p.m + 1:], sigma, len(p_op.nums))
    # a term of Q is a term of P plus at most trunc - lo terms of u, each of grade >= 1
    lo = min((l for l in grades if l <= trunc), default=trunc)
    packer = _Packer(p.n, p.m, p_op.packer.bound + (trunc - lo + 1) * tail.packer.bound)
    # a grade-l term of Q, l <= trunc, uses terms of u up to grade trunc - lo
    u_by_grade = _graded(tail, sigma, packer, trunc - lo)
    quot = _bucketed(p_op, cols, grades, packer, trunc)
    for _ in range(k):
        quot = _graded_solve(quot, u_by_grade, trunc, lambda j, l: (-1, 1))
    return _unpacked(p.n, p.m, packer, quot)


def series_exp(f: ClassSeries, trunc: int = DEFAULT_TRUNC) -> ClassSeries:
    """exp(f), exact on gamma-degree <= trunc.

    The graded solve of theta(exp f) = theta(f) exp(f):

        l E_l = sum_j j f_j E_{l-j},   E_0 = 1.
    """
    trunc = require_int(trunc, "truncation bound")
    _require_series(f)
    u = f._packed
    sigma, packer, f_by_grade = _graded_tail(f, u, "exp", trunc)
    rows = _Rows(packer, sigma, u) if sigma else None
    sol = _graded_solve({0: (1, {0: 1})}, f_by_grade, trunc, lambda j, l: (j, l), rows)
    return _unpacked(f.n, f.m, packer, sol)


def series_log(f: ClassSeries, trunc: int = DEFAULT_TRUNC) -> ClassSeries:
    """log(f) for f = 1 + u with constant term exactly 1, exact on
    gamma-degree <= trunc.

    The graded solve of theta(log f) f = theta(u):

        l L_l = l u_l + sum_j (j - l) u_j L_{l-j}.
    """
    trunc = require_int(trunc, "truncation bound")
    _require_series(f)
    _, packer, u = _graded_tail(f, _unit_tail(f, "log"), "log", trunc)
    return _unpacked(f.n, f.m, packer, _graded_solve(u, u, trunc, lambda j, l: (j - l, l)))


def _times_exp_neg_log(p: ClassSeries, f: ClassSeries, trunc: int) -> ClassSeries:
    """truncate_gamma(p * series_exp(-series_log(f, trunc), trunc), trunc)
    in one packed pass.

    L = log f and E = exp(-L) are the two graded solves of series_log and
    series_exp on the same packed buckets; p is then convolved into E only
    where the L-grades add up to at most trunc.  Every dropped pair has
    gamma-degree >= L-grade > trunc, whatever the gamma signs of p.
    """
    trunc = require_int(trunc, "truncation bound")
    _check_context(p, f)
    tail = _unit_tail(f, "log")
    sigma = _orthant(tail, "log")
    p_op = p._packed
    # a term of L or E of grade l <= trunc is a sum of terms of u whose
    # grades, each >= 1, add up to l, so its coordinates are at most
    # trunc * bound(u); a product term adds one term of p
    packer = _Packer(p.n, p.m, p_op.packer.bound + max(trunc, 0) * tail.packer.bound)
    u_by_grade = _graded(tail, sigma, packer, trunc)
    log_f = _graded_solve(u_by_grade, u_by_grade, trunc, lambda j, l: (j - l, l))
    for _, nums in log_f.values():
        for key, v in nums.items():
            nums[key] = -v
    rows = _Rows(packer, sigma, tail) if sigma else None
    exp_f = _graded_solve({0: (1, {0: 1})}, log_f, trunc, lambda j, l: (j, l), rows)
    prod = _products([
        (a, e)
        for lp, a in _graded(p_op, sigma, packer, trunc).items()
        for le, e in exp_f.items()
        if lp + le <= trunc
    ])
    return truncate_gamma(_unpacked(p.n, p.m, packer, {0: prod}), trunc)


def _unit_tail(f: ClassSeries, what: str) -> _Operand:
    # u of f = 1 + u, after checking the constant term: the zero class is
    # key 0 on every packer
    packer, den, nums = f._packed
    if nums.get(0) != den:
        raise NotInvertible(f"{what} needs constant term exactly 1")
    return _Operand(packer, den, {key: v for key, v in nums.items() if key})


def _graded_tail(f: ClassSeries, u: _Operand, what: str, trunc: int):
    # the prelude of a solve from grade 0 up to trunc: u's orthant signs,
    # a packer for every term of grade <= trunc, a sum of at most trunc
    # terms of u, and u's grade buckets up to trunc
    sigma = _orthant(u, what)
    packer = _Packer(f.n, f.m, (trunc + 1) * u.packer.bound)
    return sigma, packer, _graded(u, sigma, packer, trunc)


# the packed kernel

class _Packer:
    """Classes of shape (n, m) as integer keys, one balanced radix-2^w
    digit per coordinate, in canonical order from the most significant
    down: h_1 .. h_m, b, g_1 .. g_{n-1}.

    Sound while every coordinate of every class formed lies in
    [-bound, bound]: keys then add exactly like classes.  bound < 2^(w-1),
    so two keys differing first in some digit differ by more than all
    lower digits can make up: int order of keys is the canonical order.
    shifts lists each digit's shift in that same order.  Every operation
    sizes the packer of its result from the bounds of its operands'
    packers, so a result's bound holds each of its coordinates.
    """

    __slots__ = ("m", "w", "mask", "half", "bias", "shifts", "bound")

    def __init__(self, n: int, m: int, bound: int):
        self.m = m
        self.bound = bound
        self.w = bound.bit_length() + 1
        self.mask = (1 << self.w) - 1
        self.half = 1 << (self.w - 1)
        self.shifts = tuple(range(self.w * (n + m - 1), -1, -self.w))
        # half in every digit, which makes them all nonnegative
        self.bias = self.half * ((1 << self.w * (n + m)) - 1) // self.mask

    def pack(self, c: RelClass) -> int:
        key, w = 0, self.w
        for x in (*c.h, c.b, *c.g):
            key = (key << w) + x
        return key

    def keys(self, columns: list[list[int]]) -> list[int]:
        # the keys of digit columns in canonical order
        keys, w = columns[0], self.w
        for col in columns[1:]:
            keys = [(key << w) + x for key, x in zip(keys, col)]
        return keys

    def columns(self, keys: Iterable[int], first: int = 0, stop=None) -> list[list[int]]:
        # the digits of keys, one column per coordinate in canonical order,
        # coordinates first .. stop - 1 only (m + 1 on: the gamma columns)
        us = [key + self.bias for key in keys]
        mask, half = self.mask, self.half
        return [[(u >> s & mask) - half for u in us] for s in self.shifts[first:stop]]


class _RowBucket(dict):
    # the rows of one grade bucket; norm is the sum of |slot| over them
    __slots__ = ("norm",)


class _Rows:
    """The row layout of an exp solve's grade buckets (module docstring).

    Each row has the step +1 on sigma_c x_c and -1 on sigma_d x_d, which
    keeps the grade, with c and d two gamma digits.  A packed key sits in
    the row under outer = key - t step, in slot t = sigma_c x_c, and comes
    back as outer + t step.  Inside the orthant t >= 0, outer's c digit is
    0 and its d digit is sigma_d (|x_c| + |x_d|), at most the grade in
    size, so at most trunc, within both exp solves' packer bounds: outer
    is the key of a class, outer keys add like classes and rows multiply
    like polynomials in 2^S.  n = 2 has no
    digit c, so every row has the one slot t = 0.  Every row bucket made
    is kept in buckets, with its norm, the sum of |slot|, so that _widen
    can repack them all.
    """

    __slots__ = ("packer", "c", "step", "width", "buckets")

    def __init__(self, packer: _Packer, sigma: tuple[int, ...], u: _Operand):
        # d and c are the two gamma digits of widest spread on the operand
        # u, so rows are few and long
        home, _, nums = u
        spread = [max(map(abs, col), default=0) for col in home.columns(nums, home.m + 1)]
        order = sorted(range(len(sigma)), key=lambda k: -spread[k])
        self.packer = packer
        # (shift, sign) of digit c, and the row step; none without a digit c
        self.c, self.step = (0, 0), 0
        if len(order) > 1:
            d, c = (packer.shifts[packer.m + 1 + k] for k in order[:2])
            self.c = (c, sigma[order[1]])
            self.step = (sigma[order[1]] << c) - (sigma[order[0]] << d)
        self.width = 64
        self.buckets: list[_RowBucket] = []

    def enter(self, buckets: dict) -> dict:
        # per-key buckets as row buckets, S first widened to hold them
        norms = {l: sum(map(abs, nums.values())) for l, (_, nums) in buckets.items()}
        self._widen(max(norms.values(), default=0))
        p, (cs, sc), step = self.packer, self.c, self.step
        mask, half, bias, width = p.mask, p.half, p.bias, self.width
        out = {}
        for l, (den, nums) in buckets.items():
            rows = _RowBucket()
            for key, v in nums.items():
                t = sc * ((key + bias >> cs & mask) - half)
                outer = key - t * step
                rows[outer] = rows.get(outer, 0) + (v << width * t)
            rows.norm = norms[l]
            self.buckets.append(rows)
            out[l] = (den, rows)
        return out

    def fit(self, r_scale: int, r: dict, terms: list):
        # widen S for acc = r_scale R + sum scale A X
        bound = r.norm * r_scale if r else 0
        for scale, a, x in terms:
            bound += abs(scale) * a.norm * x.norm
        self._widen(bound)

    def reduced(self, den: int, acc: dict[int, int]):
        # _reduced on rows: the gcd and the norm read every slot once
        rows = _RowBucket()
        g, norm = den, 0
        for key, r in acc.items():
            if r:
                vs = _slots(r, self.width)
                norm += sum(map(abs, vs))
                g = math.gcd(g, *vs)
                rows[key] = r
        if not rows:
            return None
        if g > 1:
            den //= g
            norm //= g
            for key, r in rows.items():
                rows[key] = r // g
        rows.norm = norm
        self.buckets.append(rows)
        return den, rows

    def leave(self, sol: dict) -> dict:
        # row buckets back to per-key buckets, key = outer + t step
        step, out = self.step, {}
        for l, (den, rows) in sol.items():
            nums = {}
            for outer, r in rows.items():
                for t, v in enumerate(_slots(r, self.width)):
                    if v:
                        nums[outer + t * step] = v
            out[l] = (den, nums)
        self.buckets.clear()
        return out

    def _widen(self, bound: int):
        # the smallest multiple of 64 with bound < 2^(S-2), rows repacked
        need = bound.bit_length() + 2
        if need <= self.width:
            return
        old, self.width = self.width, -(-need // 64) * 64
        for rows in self.buckets:
            for key, r in rows.items():
                rows[key] = sum(v << self.width * t for t, v in enumerate(_slots(r, old)))


def _slots(r: int, width: int) -> list[int]:
    # the balanced width-bit digits of r, lowest first: the slots of a row
    mask, half = (1 << width) - 1, 1 << (width - 1)
    out = []
    while r:
        v = (r + half & mask) - half
        out.append(v)
        r = (r - v) >> width
    return out


def _coord_bound(terms: Collection[RelClass]) -> int:
    # the largest |coordinate|, read attribute by attribute at C speed
    xs = list(map(_B, terms))
    xs += chain.from_iterable(map(_G, terms))
    xs += chain.from_iterable(map(_H, terms))
    return max(map(abs, xs), default=0)


def _ints(terms: Mapping[RelClass, Fraction], pack) -> tuple[int, dict[int, int]]:
    # packed keys with int numerators over one common denominator
    den = math.lcm(*(q.denominator for q in terms.values()))
    if den == 1:
        return den, {pack(c): q.numerator for c, q in terms.items()}
    return den, {pack(c): q.numerator * (den // q.denominator) for c, q in terms.items()}


# terms as packed keys with int numerators over one common denominator
_Operand = namedtuple("_Operand", "packer den nums")


def _moved(op: _Operand, packer: _Packer) -> tuple[int, dict[int, int]]:
    # the (den, nums) of an operand with its keys on packer, moved from its
    # home packer digit by digit only if the widths differ
    home, den, nums = op
    if home.w == packer.w:
        return den, nums
    return den, dict(zip(packer.keys(home.columns(nums)), nums.values()))


def _sorted(nums: dict[int, int]) -> tuple[list[int], list[int]]:
    # the keys in canonical order, which is int order, and their numerators
    keys = sorted(nums)
    return keys, list(map(nums.__getitem__, keys))


def _degrees(gamma: list[list[int]], size: int) -> list[int]:
    # the gamma-degree sum_k |g_k| of each row of gamma columns
    degrees = [0] * size
    for col in gamma:
        degrees = list(map(add, degrees, map(abs, col)))
    return degrees


def _grades(gamma: list[list[int]], sigma: tuple[int, ...], size: int) -> list[int]:
    # the grade L(c) = sum_k sigma_k g_k of each row of gamma columns
    grades = [0] * size
    for sign, col in zip(sigma, gamma):
        grades = list(map(add if sign > 0 else sub, grades, col))
    return grades


def _graded(op: _Operand, sigma: tuple[int, ...], packer: _Packer, trunc: int | None = None):
    # an operand's terms of grade <= trunc (all of them without a trunc)
    # as {grade: (den, nums)} keyed on packer, read off its digit columns
    home, _, nums = op
    cols = home.columns(nums)
    return _bucketed(op, cols, _grades(cols[home.m + 1:], sigma, len(nums)), packer, trunc)


def _bucketed(op: _Operand, cols: list[list[int]], grades: list[int], packer: _Packer, trunc):
    # _graded given the operand's digit columns and grades: each bucket is
    # over its reduced denominator, and keys move to packer only if its
    # width differs
    home, den, nums = op
    keys = nums if packer.w == home.w else packer.keys(cols)
    by_grade: dict[int, dict[int, int]] = {}
    for key, v, l in zip(keys, nums.values(), grades):
        if trunc is None or l <= trunc:
            by_grade.setdefault(l, {})[key] = v
    if den == 1:
        return {l: (1, bucket) for l, bucket in by_grade.items()}
    return {l: _reduced(den, bucket) for l, bucket in by_grade.items()}


def _products(pairs: list) -> tuple[int, dict[int, int]]:
    # (den, nums) of the sum of a * b over the pairs (a, b) of (den, nums)
    # buckets, on their one common denominator.  pairs is emptied as it
    # goes, so a bucket held nowhere else is freed once it is convolved
    den = math.lcm(*(da * db for (da, _), (db, _) in pairs))
    acc: dict[int, int] = {}
    while pairs:
        (da, a), (db, b) = pairs.pop()
        _convolve(acc, a, b, den // (da * db))
    return den, acc


def _packed_power(base: tuple[int, dict[int, int]], k: int):
    # base**k by square-and-multiply, for an f without a graded unit tail
    result = (1, {0: 1})
    while k:
        if k & 1:
            result = _products([(result, base)])
        k >>= 1
        if k:
            base = _products([(base, base)])
    return result


def _times_powers(parts: list, u_by_grade: dict) -> tuple[int, dict[int, int]]:
    """(den, nums) of sum p (1 + u)**k over the (p, k) in parts, u given
    by its grade buckets, every grade >= 1.

    (1 + u)**k is J.C.P. Miller's recurrence, the graded solve of
    theta(F) f = k theta(f) F:

        l F_l = sum_j ((k + 1) j - l) u_j F_{l-j},   F_0 = 1,

    from grade 0 up to k max L(u), about |u| |F| pairs, once per distinct
    k; each p is then convolved into the buckets of its power.
    """
    top = max(u_by_grade, default=0)
    powers: dict[int, list] = {}
    pairs = []
    for p, k in parts:
        if k not in powers:
            fk = _graded_solve({0: (1, {0: 1})}, u_by_grade, k * top,
                               lambda j, l: ((k + 1) * j - l, l))
            powers[k] = list(fk.values())
        pairs += [(p, x) for x in powers[k]]
    # the pairs hold the only references, so each power is freed as used
    powers.clear()
    return _products(pairs)


def _convolve(acc: dict[int, int], a: dict[int, int], b: dict[int, int], scale: int):
    # acc += scale * a * b on packed keys
    get = acc.get
    b_items = list(b.items())
    for k1, n1 in a.items():
        n1 *= scale
        for k2, n2 in b_items:
            key = k1 + k2
            acc[key] = get(key, 0) + n1 * n2


def _graded_solve(rhs: dict, coef: dict, trunc: int, weight, rows: _Rows | None = None) -> dict:
    """X_l = R_l + sum_j (p/q) A_j X_{l-j}, with (p, q) = weight(j, l), q > 0.

    Buckets are {grade: (den, {key: num})}, every A_j of grade j >= 1.
    Solved from the lowest grade of R up to trunc, stopping once R is used
    up and the last max j buckets of X are empty: every later one is empty
    too.  Each bucket of X is kept over its own reduced denominator.  With
    a row layout, R, A and X are held as rows inside the solve; the
    buckets in and out are keyed by class either way.
    """
    if not rhs:
        return {}
    if rows is not None:
        rhs, coef = rows.enter(rhs), rows.enter(coef)
    reduced = _reduced if rows is None else rows.reduced
    reach = max(coef, default=0)
    top = max(rhs)
    sol: dict[int, tuple[int, dict[int, int]]] = {}
    for l in range(min(rhs), trunc + 1):
        if l > top and all(l - j not in sol for j in range(1, reach + 1)):
            break
        parts = [(weight(j, l), coef[j], sol[l - j]) for j in coef if l - j in sol]
        r_den, r = rhs.get(l, (1, {}))
        den = math.lcm(r_den, *(q * da * dx for (_, q), (da, _), (dx, _) in parts))
        terms = [(p * (den // (q * da * dx)), a, x) for (p, q), (da, a), (dx, x) in parts]
        if rows is not None:
            rows.fit(den // r_den, r, terms)
        acc = {key: v * (den // r_den) for key, v in r.items()}
        for scale, a, x in terms:
            _convolve(acc, a, x, scale)
        bucket = reduced(den, acc)
        if bucket:
            sol[l] = bucket
    return sol if rows is None else rows.leave(sol)


def _reduced(den: int, acc: dict[int, int]):
    # (den, nums) of a bucket without its zero terms, over its reduced
    # denominator; None when every term cancelled
    nums = {key: v for key, v in acc.items() if v}
    if not nums:
        return None
    g = math.gcd(den, *nums.values())
    if g > 1:
        den //= g
        nums = {key: v // g for key, v in nums.items()}
    return den, nums


def _unpacked(n: int, m: int, packer: _Packer, buckets: dict) -> ClassSeries:
    # a kernel result as a ClassSeries on its packer: the {grade: (den, nums)}
    # buckets merged over their lcm, cancelled terms dropped
    den = math.lcm(*(d for d, _ in buckets.values()))
    nums = {}
    for d, bucket in buckets.values():
        scale = den // d
        nums.update({key: v * scale for key, v in bucket.items() if v})
    s = ClassSeries.__new__(ClassSeries)
    s.n, s.m, s._packed = n, m, _Operand(packer, den, nums)
    return s


def _split_b(s: ClassSeries, sign: int) -> dict[int, ClassSeries]:
    # the terms of s grouped by e = sign * b, each group a packed series
    # on s's packer, read off the b digit column with no class built
    packer, den, nums = s._packed
    groups: dict[int, dict[int, int]] = {}
    b, = packer.columns(nums, s.m, s.m + 1)
    for key, v, e in zip(nums, nums.values(), b if sign > 0 else map(neg, b)):
        groups.setdefault(e, {})[key] = v
    return {e: _unpacked(s.n, s.m, packer, {0: (den, group)}) for e, group in groups.items()}


def _packed_sum(n: int, m: int, parts: list[ClassSeries], degree: int | None = None):
    # the sum of the parts on one packer as wide as the widest of theirs,
    # held packed; with a degree, only its terms of gamma-degree <= degree.
    # A part's keys are moved digit by digit only if its packer is narrower
    read = [part._packed for part in parts]
    packer = _Packer(n, m, max((home.bound for home, _, _ in read), default=0))
    den = math.lcm(*(d for _, d, _ in read))
    acc: dict[int, int] = {}
    get = acc.get
    for home, d, nums in read:
        keys, vals = nums, nums.values()
        if degree is not None or home.w != packer.w:
            cols = home.columns(nums)
            degrees = _degrees(cols[m + 1:], len(nums)) if degree is not None else []
            if degrees and max(degrees) > degree:
                keep = [x <= degree for x in degrees]
                keys, vals = list(compress(keys, keep)), list(compress(vals, keep))
                cols = [list(compress(col, keep)) for col in cols]
            if home.w != packer.w:
                keys = packer.keys(cols)
        scale = den // d
        for key, v in zip(keys, vals):
            acc[key] = get(key, 0) + v * scale
    return _unpacked(n, m, packer, {0: (den, acc)})


def _orthant(u: _Operand, what: str) -> tuple[int, ...]:
    # All terms of the operand u must sit in gamma-degree >= 1 and in one
    # closed sign orthant of gamma space; otherwise products can fall back
    # to low gamma-degree and the truncated expansion would be wrong, not
    # just incomplete.  Returns the orthant's signs sigma, sigma_k the sign
    # of gamma_k on u (+1 where unused); _grades reads the grade
    # L(c) = sum_k sigma_k g_k off packed keys.  Read off u's gamma columns;
    # of several terms of gamma-degree 0 the first in canonical order is named
    packer, _, nums = u
    gamma = packer.columns(nums, packer.m + 1)
    degrees = _degrees(gamma, len(nums))
    if 0 in degrees:
        c, = _classes(packer.m, packer.columns([min(key for key, d in zip(nums, degrees) if d == 0)]))
        raise NotFiltered(f"{what}: term {c} has gamma-degree 0")
    for k, col in enumerate(gamma):
        if col and max(col) > 0 and min(col) < 0:
            raise NotFiltered(
                f"{what}: gamma_{k + 1} appears with both signs, "
                "gamma-degree truncation would drop low-order terms"
            )
    return tuple(-1 if col and min(col) < 0 else 1 for col in gamma)


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


_FIELDS = frozenset(("b", "g", "h", "coeff_numerator", "coeff_denominator"))
_FIELD_VALUES = itemgetter("h", "b", "g", "coeff_numerator", "coeff_denominator")


def from_records(n: int, m: int, records: Iterable[Mapping]) -> ClassSeries:
    """Inverse of to_records, parsed straight into packed keys.

    Every field must be a genuine integer (no bool, float or string), g
    and h arrays of the fan's shape, and the denominator nonzero; anything
    else is a SchemaError, never a silent rounding, and the first bad
    record is the one reported.  No RelClass or Fraction is built: each
    record's coordinates become a key on one packer sized from the
    records' largest coordinate, coefficients are int numerators over the
    lcm of the denominators, duplicate keys are summed and sums that
    cancel dropped.  The series stays packed until it is read.
    """
    n, m = _shape(n, m)
    parsed = [_record(rec, n, m) for rec in records]
    if not parsed:
        return _unpacked(n, m, _Packer(n, m, 0), {})
    rows, nums, dens = zip(*parsed)
    packer = _Packer(n, m, max(map(abs, chain.from_iterable(rows))))
    lcm = math.lcm(*dens)
    acc: dict[int, int] = {}
    get = acc.get
    for key, num, den in zip(packer.keys(list(zip(*rows))), nums, dens):
        acc[key] = get(key, 0) + num * (lcm // den)
    return _unpacked(n, m, packer, {0: (lcm, acc)})


def _record(rec, n: int, m: int) -> tuple[list[int], int, int]:
    # one record as its digits h, b, g in key order, numerator and
    # denominator.  A plain dict of the five fields with int values and
    # list arrays of the fan's lengths is read at once; anything else goes
    # through every check in order, the first failure a SchemaError
    if type(rec) is dict and len(rec) == 5:
        try:
            h, b, g, num, den = _FIELD_VALUES(rec)
        except KeyError:
            pass
        else:
            if (type(h) is list and type(g) is list and len(h) == m and len(g) == n - 1
                    and type(num) is int and type(den) is int and den):
                xs = [*h, b, *g]
                if countOf(map(type, xs), int) == len(xs):
                    return xs, num, den
    if not isinstance(rec, Mapping):
        raise SchemaError(f"series record must be an object, got {rec!r}")
    extra = set(rec) - _FIELDS
    if extra:
        raise SchemaError(f"unknown series record keys {sorted(extra)}")
    try:
        b = require_int(rec["b"], "series record b", SchemaError)
        g = require_ints(rec["g"], "series record g", n - 1, SchemaError)
        h = require_ints(rec["h"], "series record h", m, SchemaError)
        num = require_int(rec["coeff_numerator"], "series record coeff_numerator", SchemaError)
        den = require_int(rec["coeff_denominator"], "series record coeff_denominator", SchemaError)
    except KeyError as exc:
        raise SchemaError(f"bad series record {rec!r}: missing key {exc}") from exc
    if den == 0:
        raise SchemaError(f"bad series record {rec!r}: coeff_denominator is 0")
    return [*h, b, *g], num, den
