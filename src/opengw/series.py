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
digit columns of all the operand's keys at once: _graded, the one
grader, splits an operand into grade buckets.  Outside the solve
below, every sum of products of (den, nums) buckets, multiply included,
is _products: one convolution per pair over the pairs' common
denominator.  Every plain sum of buckets is _summed: the numerators of
shared keys added over the buckets' lcm, a lone bucket passed through
uncopied and more of them added into a copy of the largest, made at C
speed, with no bucket given changed.  novikov uses both on T-exponent
keys.  Division, series_exp, series_log and Miller's powers are one
weighted triangular solve, graded by the linear form L of the gamma
orthant,

    X_l = R_l + sum_j (p/q) A_j X_{l-j},   (p, q) = weight(j, l),

with one denominator per grade bucket, buckets combined over the lcm and
reduced by their gcd.  For f = 1 + u the callers supply

    f**k (Miller)     R = 1            weight ((k + 1) j - l, l)
    p / f             R = p            weight (-1, 1)
    series_exp        R = 1            weight (j, l)
    series_log        R = u            weight (j - l, l)

Every graded solve on f = 1 + u, but series_exp's on f itself, takes u
and its orthant signs from one prelude, _unit.  Every sum p f**e over
integer e is one engine, _powered, which prepares f once per call on
one packer: times_powers (the Chekanov superpotential
beta_hat f**0 + sum_a beta'_a f**p_a), divide_by_power (the one part
(p, -k)) and the gluing map z^c -> z^c f^(-+c.b) (_glued).
novikov calls its Miller solve, _times_powers, on T-exponent keys, for
every Novikov power and inverse and for novikov.evaluate_chekanov.  The
wall-crossing identity's p exp(-log f), _times_exp_neg_log, chains two
solves on one packer and one row layout (below):

    L = log f         R = u            weight (j - l, l)
    E = exp(-L)       R = 1, A = -L    weight (j, l)

with L's rows negated in place to be E's coefficient, then convolves
p's rows into E's only where the L-grades add up to at most trunc.

series_exp and _times_exp_neg_log hold their buckets as rows, Kronecker
substitution: a bucket is homogeneous in L, so moving along a row's
step, +1 on sigma_c x_c and -1 on sigma_d x_d for two gamma digits c
and d, keeps the grade.  A key sits in the row under outer = key - t
step, in slot t = sigma_c x_c >= 0, and leaves as outer + t step; the
terms sharing an outer key are one int with a signed S-bit slot per t,
so _convolve multiplies whole rows.  A term of p off the orthant along
c, where sigma_c x_c < 0, sits in slot 0 under its own key, so one key
of a product can sit in two rows; leaving sums the slots of each key.
S starts at 64 and widens, repacking the rows, whenever a grade's bound

    sum |R| den / r_den + sum_j |scale_j| sum |A_j| sum |X_{l-j}|

reaches 2^(S-2), so no slot overflows whatever the signs, and before
p's rows are convolved into E's.  A grade's gcd is found with no slot
read: g = gcd(den, row ints) is a multiple of the slots' gcd, and one
masked test per row on r // g certifies the two equal (_certified); the
bucket is divided by g and keeps the bound over g as its norm, an upper
bound.  Slots are read back only on output, when a certificate fails
(the gcd and the exact norm are then read slot by slot), and before a
widen whose bound rests on such a norm: it is made exact first, so S
widens only where exact norms call for it.  The callers enter and leave
the rows once:
series_exp enters f and 1 and leaves E, _times_exp_neg_log enters u, 1
and p and leaves only the product.  series_log on its own and the
power, division and Chekanov-evaluation solves keep one term per key:
their coefficient is the sparse unit tail u, and Miller's f^8 of CP^8,
for one, measured slower on rows.

Every ClassSeries is one packed operand, set when it is made and never
changed: a packer, one common denominator and a nonzero int numerator
per key.  Digit rows are the one way in: the constructor and
from_records hand _encoded the rows [*h, b, *g] of their classes or
records, which it packs on one packer sized from the largest
|coordinate|, over the lcm of the denominators, duplicate keys summed.
Every kernel result and parsed series goes through _unpacked, which
takes one (den, nums) bucket and drops cancelled terms.  Results are
handed on, not copied: _unpacked keeps the dict it is given, and
_reduced the accumulator of its grade, each rebuilt only when a term
cancelled (or, in _reduced, to divide by a gcd above 1).  So a series
can share its dict with another, or with a part it was summed from;
that is safe because a ClassSeries never changes once made.  len and
bool read the numerators; +, - and truncate_gamma are _packed_sum, which
adds packed parts with _summed on the widest of their packers, a
subtracted part's sign on its bucket's denominator, and drops terms
above a gamma-degree off their gamma columns; scaled scales the
numerators and the denominator; coeff encodes the one class asked about
with _Packer.keys.  None of them reduces by the gcd, so == on one
packer width compares the keys and the numerators cross-multiplied by
the other denominator, and == across widths and hash read
ClassSeries.columns: it sorts the int keys and splits their digits
into one int column per coordinate (_Packer.columns, the only decoder
of keys, and digit columns the one way out), with the numerators over
their reduced common denominator (_lowest_terms, which novikov's
scalars use too).  _Packer.columns reads 32 or more keys of at most 64
bits each in bulk: it packs them into one int, a 64-bit slot per key,
and reads each column off it with one shift and one mask, at C speed;
a smaller or wider key set is read key by key.  Invariant tables and
rendered series are read that way.  Gluing never leaves the keys
either: _glued splits the source by its b column alone and is one
_powered call, cut by truncate_gamma when a power is negative.  items()
alone builds a RelClass and a Fraction per
term, on each call, from the digit columns (fan._classes), with equal
numerators sharing one Fraction.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import namedtuple
from collections.abc import Iterable, Mapping
from fractions import Fraction
from itertools import chain, compress, repeat
from operator import add, and_, attrgetter, countOf, eq, floordiv, itemgetter, mul, or_, sub

from .errors import BadParams, DimensionMismatch, NotFiltered, NotInvertible, SchemaError
from .fan import RelClass, _classes, _require, require_int, require_ints, require_rational

DEFAULT_TRUNC = 16


class ClassSeries:
    """Finitely supported map RelClass -> Fraction with ambient shape (n, m).

    n >= 1 and m >= 0 must be genuine integers, every key a RelClass of the
    shape with int coordinates and every coefficient pass
    fan.require_rational, so a float is rejected, never rounded.

    A series is one packed operand, set when it is made and never changed
    (module docstring): its packer, a common denominator and int
    numerators by key, none of them zero.  +, -, scaled, truncate_gamma,
    coeff, len, bool, == and columns all work on the keys; items() builds
    a RelClass and a Fraction per term on each call.
    """

    __slots__ = ("n", "m", "_packed")

    def __init__(self, n: int, m: int, terms: Mapping[RelClass, Fraction] | None = None):
        self.n, self.m = _shape(n, m)
        clean = []
        if terms is not None:
            _require(terms, Mapping, "series terms")
            for cls, coeff in terms.items():
                _require(cls, RelClass, "series key")
                _require(cls.g, tuple, "series key g")
                _require(cls.h, tuple, "series key h")
                if len(cls.g) != n - 1 or len(cls.h) != m:
                    raise DimensionMismatch(f"class {cls} does not fit shape ({n}, {m})")
                # every coordinate an int, as _record reads them
                xs = [*cls.h, cls.b, *cls.g]
                if countOf(map(type, xs), int) != len(xs):
                    raise BadParams(f"series key coordinates must be integers, got {cls}")
                q = require_rational(coeff, "series coefficient")
                if q:
                    clean.append((xs, q.numerator, q.denominator))
        self._packed = _encoded(n, m, clean)

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
        den, nums = _lowest_terms(den, nums)
        return packer.columns(keys), den, nums

    def coeff(self, cls: RelClass) -> Fraction:
        # a class of another shape, or with a coordinate beyond the
        # packer's bound, has no key on it and is not a term
        _require(cls, RelClass, "series key")
        packer, den, nums = self._packed
        row = [*cls.h, cls.b, *cls.g]
        if (len(cls.g) != self.n - 1 or len(cls.h) != self.m
                or max(map(abs, row)) > packer.bound):
            return Fraction(0)
        key, = packer.keys([[x] for x in row])
        return Fraction(nums.get(key, 0), den)

    def __len__(self) -> int:
        return len(self._packed.nums)

    def __bool__(self) -> bool:
        return bool(self._packed.nums)

    def __eq__(self, other) -> bool:
        if not (isinstance(other, ClassSeries) and self.n == other.n and self.m == other.m):
            return False
        (packer, den, nums), (other_packer, other_den, other_nums) = self._packed, other._packed
        if packer.w != other_packer.w:
            return self.columns() == other.columns()
        # one width, one key per class: the same keys, and the numerators
        # equal cross-multiplied by the other denominator
        return nums.keys() == other_nums.keys() and all(map(
            eq, map(mul, nums.values(), repeat(other_den)),
            map(mul, map(other_nums.__getitem__, nums), repeat(den))))

    def __hash__(self):
        cols, den, nums = self.columns()
        return hash((self.n, self.m, tuple(map(tuple, cols)), den, tuple(nums)))

    def __add__(self, other: "ClassSeries") -> "ClassSeries":
        _check_context(self, other)
        return _packed_sum(self.n, self.m, [(1, self), (1, other)])

    def __neg__(self) -> "ClassSeries":
        return self.scaled(-1)

    def __sub__(self, other: "ClassSeries") -> "ClassSeries":
        _check_context(self, other)
        return _packed_sum(self.n, self.m, [(1, self), (-1, other)])

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
        return _unpacked(self.n, self.m, packer, den * q.denominator,
                         {key: v * p for key, v in nums.items()})

    def __repr__(self):
        body = " + ".join(f"{q}*[{c}]" for c, q in self.items()) or "0"
        return f"<ClassSeries ({self.n},{self.m}) {body}>"


def _require_series(f):
    _require(f, ClassSeries, "series operand")


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


def zero(n: int, m: int) -> ClassSeries:
    return ClassSeries(n, m)


def one(n: int, m: int) -> ClassSeries:
    return monomial(n, m, RelClass(0, (0,) * (n - 1), (0,) * m))


def monomial(n: int, m: int, cls: RelClass, coeff=Fraction(1)) -> ClassSeries:
    return ClassSeries(n, m, {cls: coeff})


def _one_plus_gammas(n: int, m: int) -> ClassSeries:
    # 1 + sum_k gamma_k straight on a packer, with no class built: key 0
    # for the zero class and, for each gamma_k, +1 in its gamma digit
    packer = _Packer(n, m, 1)
    nums = dict.fromkeys([0, *(1 << shift for shift in packer.shifts[m + 1:])], 1)
    return _unpacked(n, m, packer, 1, nums)


def multiply(f: ClassSeries, g: ClassSeries) -> ClassSeries:
    """Exact convolution product; classes add, coefficients multiply."""
    _check_context(f, g)
    a, b = f._packed, g._packed
    packer = _Packer(f.n, f.m, a.packer.bound + b.packer.bound)
    return _unpacked(f.n, f.m, packer, *_products([(_moved(a, packer), _moved(b, packer))]))


def truncate_gamma(f: ClassSeries, degree: int) -> ClassSeries:
    """Drop every term of gamma-degree above the given bound."""
    degree = require_int(degree, "gamma-degree bound")
    _require_series(f)
    return _packed_sum(f.n, f.m, [(1, f)], degree)


def power(f: ClassSeries, k: int) -> ClassSeries:
    """f**k for k >= 0, exact: times_powers([(1, k)], f)."""
    _require_series(f)
    return times_powers([(one(f.n, f.m), k)], f)


def times_powers(parts: Iterable[tuple[ClassSeries, int]], f: ClassSeries) -> ClassSeries:
    """sum p * f**k over the (p, k) in parts, every k >= 0, exact, in one
    packed pass (_powered).

    When f = 1 + u with u in one closed gamma orthant and free of
    gamma-degree 0 (every gluing factor), each f**k, k > 0, is Miller's
    recurrence (_times_powers), solved once per distinct k, and each p is
    convolved into the grade buckets of its power.  Any other f is raised
    by square-and-multiply.  A p with k = 0 is added as it is.
    """
    _require_series(f)
    try:
        pairs = [(p, k) for p, k in parts]
    except (TypeError, ValueError):
        raise BadParams("times_powers needs an iterable of (series, exponent) pairs") from None
    checked = []
    for p, k in pairs:
        _check_context(p, f)
        k = require_int(k, "exponent")
        if k < 0:
            raise BadParams(f"times_powers needs an exponent >= 0, got {k}")
        checked.append((p._packed, k))
    return _powered(f.n, f.m, checked, f)


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
    term of L-grade <= trunc and may hold some of gamma-degree above
    trunc; for k = 0 it is p's terms of L-grade <= trunc.  It is the one
    part (p, -k) of _powered.
    """
    _check_context(f, p)
    k = require_int(k, "exponent")
    trunc = _trunc_bound(trunc)
    if k < 0:
        raise BadParams(f"divide_by_power needs an exponent >= 0, got {k}")
    return _powered(p.n, p.m, [(p._packed, -k)], f, trunc)


def series_exp(f: ClassSeries, trunc: int = DEFAULT_TRUNC) -> ClassSeries:
    """exp(f), exact on gamma-degree <= trunc.

    The graded solve of theta(exp f) = theta(f) exp(f):

        l E_l = sum_j j f_j E_{l-j},   E_0 = 1,

    on rows: f and 1 enter them once and E leaves them once.
    """
    trunc = _trunc_bound(trunc)
    _require_series(f)
    u = f._packed
    sigma = _orthant(u, "exp")
    # a term of grade <= trunc is a sum of at most trunc terms of u
    packer = _Packer(f.n, f.m, (trunc + 1) * u.packer.bound)
    rows = _Rows(packer, sigma, u)
    sol = _graded_solve(rows.enter({0: (1, {0: 1})}), rows.enter(_graded(u, sigma, packer, trunc)),
                        trunc, lambda j, l: (j, l), rows)
    return _unpacked(f.n, f.m, packer, *rows.leave(sol))


def series_log(f: ClassSeries, trunc: int = DEFAULT_TRUNC) -> ClassSeries:
    """log(f) for f = 1 + u with constant term exactly 1, exact on
    gamma-degree <= trunc.

    The graded solve of theta(log f) f = theta(u):

        l L_l = l u_l + sum_j (j - l) u_j L_{l-j}.
    """
    trunc = _trunc_bound(trunc)
    _require_series(f)
    u, sigma = _unit(f, "log")
    packer = _Packer(f.n, f.m, (trunc + 1) * u.packer.bound)
    u = _graded(u, sigma, packer, trunc)
    log_f = _graded_solve(u, u, trunc, lambda j, l: (j - l, l))
    return _unpacked(f.n, f.m, packer, *_summed(list(log_f.values())))


def _times_exp_neg_log(p: ClassSeries, f: ClassSeries, trunc: int) -> ClassSeries:
    """truncate_gamma(p * series_exp(-series_log(f, trunc), trunc), trunc)
    in one pass on one row layout.

    u = f - 1, 1 and p enter the rows once.  L = log f and E = exp(-L) are
    the graded solves of series_log and series_exp on rows, E's
    coefficient being L's rows negated in place; p is then convolved into
    E only where the L-grades add up to at most trunc, and the product
    leaves the rows once.  Every dropped pair has gamma-degree >= L-grade
    > trunc, whatever the gamma signs of p.
    """
    trunc = _trunc_bound(trunc)
    _check_context(p, f)
    tail, sigma = _unit(f, "log")
    p_op = p._packed
    # a term of L or E of grade l <= trunc is a sum of terms of u whose
    # grades, each >= 1, add up to l, so its coordinates are at most
    # trunc * bound(u); a product term adds one term of p.  A row of p
    # has outer keys with a d digit of at most |x_c| + |x_d| <= 2 bound(p)
    # (_Rows), so outer keys of products stay within the bound too
    packer = _Packer(p.n, p.m, 2 * p_op.packer.bound + trunc * tail.packer.bound)
    rows = _Rows(packer, sigma, tail)
    u = rows.enter(_graded(tail, sigma, packer, trunc))
    log_f = _graded_solve(u, u, trunc, lambda j, l: (j - l, l), rows)
    for _, r in log_f.values():
        for outer, v in r.items():
            r[outer] = -v
    exp_f = _graded_solve(rows.enter({0: (1, {0: 1})}), log_f, trunc, lambda j, l: (j, l), rows)
    prod = rows.products([
        (a, e)
        for lp, a in rows.enter(_graded(p_op, sigma, packer, trunc)).items()
        for le, e in exp_f.items()
        if lp + le <= trunc
    ])
    return truncate_gamma(_unpacked(p.n, p.m, packer, *rows.leave({0: prod})), trunc)


def _glued(p: ClassSeries, f: ClassSeries, sign: int, trunc: int) -> ClassSeries:
    """The gluing map z^c -> z^c f^(sign c.b): one _powered call on the
    parts of p split by e = sign * b, read off p's b column alone.  When
    some e < 0, trunc is checked and the result is cut by truncate_gamma;
    otherwise it is exact and untruncated.
    """
    home, den, nums = p._packed
    groups: dict[int, dict[int, int]] = {}
    for (key, v), b in zip(nums.items(), home.columns(nums, p.m, p.m + 1)[0]):
        groups.setdefault(sign * b, {})[key] = v
    negative = min(groups, default=0) < 0
    parts = [(_Operand(home, den, group), e) for e, group in groups.items()]
    glued = _powered(p.n, p.m, parts, f, _trunc_bound(trunc) if negative else None)
    return truncate_gamma(glued, trunc) if negative else glued


def _powered(n: int, m: int, parts: list, f: ClassSeries, trunc: int | None = None) -> ClassSeries:
    """sum p * f**e over the (p, e) parts, p a packed operand, in one
    packed pass: f checked once, one packer sized for every part and f's
    unit tail graded on it once.

    The e > 0 parts are one _times_powers call, or square-and-multiply
    for an f without a graded unit tail.  Without a trunc every e >= 0,
    an e = 0 part is added as it is and the sum is exact.  With a trunc,
    an int >= 0, f must have a graded unit tail (NotInvertible or
    NotFiltered, "negative power", otherwise) and each part with e <= 0
    keeps its terms of L-grade <= trunc and is divided |e| times up to
    grade trunc, as in divide_by_power.  Parts can share keys, so the
    buckets are added by _summed.
    """
    # with every e = 0 and no trunc each part is added as it is: f's tail
    # is neither checked nor graded
    unit = None
    if trunc is not None or any(e for _, e in parts):
        try:
            unit = _unit(f, "negative power")
        except (NotInvertible, NotFiltered):
            if trunc is not None:
                raise
    step = f._packed.packer.bound
    # a term of p f**e, e > 0, is a term of p plus e terms of f; a term of
    # p / f**|e| of grade <= trunc is one of p plus at most trunc - lo
    # terms of u, each of grade >= 1, lo the lowest grade of p up to trunc
    staged, bound = [], 0
    for op, e in parts:
        home, _, nums = op
        read = None
        reach = max(e, 0)
        if trunc is not None and e <= 0:
            cols = home.columns(nums)
            grades = _grades(cols[m + 1:], unit[1], len(nums))
            reach = trunc - min((l for l in grades if l <= trunc), default=trunc) + 1
            read = cols, grades
        bound = max(bound, home.bound + reach * step)
        staged.append((op, e, read))
    packer = _Packer(n, m, bound)
    u_by_grade = None if unit is None else _graded(*unit, packer)
    buckets, powers = [], []
    for op, e, read in staged:
        if read is not None:
            quot = _graded(op, unit[1], packer, trunc, read)
            for _ in range(-e):
                quot = _graded_solve(quot, u_by_grade, trunc, lambda j, l: (-1, 1))
            buckets += quot.values()
        elif e > 0:
            powers.append((_moved(op, packer), e))
        else:
            buckets.append(_moved(op, packer))
    if powers and u_by_grade is not None:
        buckets.append(_times_powers(powers, u_by_grade))
    elif powers:
        base = _moved(f._packed, packer)
        fk = {e: _packed_power(base, e) for e in {e for _, e in powers}}
        buckets.append(_products([(p, fk[e]) for p, e in powers]))
    return _unpacked(n, m, packer, *_summed(buckets))


def _unit(f: ClassSeries, what: str) -> tuple[_Operand, tuple[int, ...]]:
    # (u, sigma) of f = 1 + u, the prelude of every graded solve on u: f's
    # constant term must be exactly 1 (key 0 on every packer) and u sit in
    # one closed gamma orthant sigma, free of gamma-degree 0
    packer, den, nums = f._packed
    if nums.get(0) != den:
        raise NotInvertible(f"{what} needs constant term exactly 1")
    u = _Operand(packer, den, {key: v for key, v in nums.items() if key})
    return u, _orthant(u, what)


def _trunc_bound(trunc) -> int:
    # a truncation bound of the graded solves: an int >= 0
    trunc = require_int(trunc, "truncation bound")
    if trunc < 0:
        raise BadParams(f"truncation bound must be >= 0, got {trunc}")
    return trunc


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
        mask, half, shifts, size = self.mask, self.half, self.shifts[first:stop], len(us)
        # the bulk read has a fixed cost of a few microseconds a call and
        # wins from about 12 to 36 keys (9 to 3 columns); most of the
        # kernel's calls have fewer keys and read faster key by key
        if size < 32 or self.shifts[0] + self.w > 64:
            return [[(u >> s & mask) - half for u in us] for s in shifts]
        # 32 or more keys of at most 64 bits each: every biased key is one
        # 64-bit slot of one int, so a column is one shift and one mask of
        # it (ones has a 1 in every slot).  Lifting each slot by 2^63 - half
        # and flipping its bit 63 makes it the signed digit, with no carry
        # between slots, read back as signed 64-bit ints
        order, nbytes = sys.byteorder, 8 * size
        ones = int.from_bytes(array("Q", [1]) * size, order)
        packed = int.from_bytes(array("Q", us), order)
        digit, lift, sign = mask * ones, ((1 << 63) - half) * ones, ones << 63
        return [array("q", (((packed >> s & digit) + lift) ^ sign).to_bytes(nbytes, order)).tolist()
                for s in shifts]


class _RowBucket(dict):
    # the rows of one grade bucket; norm is a bound on the sum of |slot|
    # over them, exact when exact is set
    __slots__ = ("norm", "exact")


class _Rows:
    """The row layout of grade buckets (module docstring).

    Each row has the step +1 on sigma_c x_c and -1 on sigma_d x_d, which
    keeps the grade, with c and d two gamma digits.  A packed key sits in
    the row under outer = key - t step, in slot t = max(sigma_c x_c, 0),
    and comes back as outer + t step.  Inside the orthant t = sigma_c x_c,
    outer's c digit is 0 and its d digit is sigma_d (|x_c| + |x_d|), at
    most the grade in size, so at most trunc.  A term of p off the orthant
    has an outer key with digits at most 2 bound(p), its own key when t
    = 0.  Each caller's packer holds every outer key and every sum of two
    that it forms, so outer is the key of a class, outer keys add like
    classes and rows multiply like polynomials in 2^S.  n <= 2 has no
    digit c, so every row has the one slot t = 0.  Every row bucket made
    is kept in buckets, with its norm, so that _widen can repack them all.

    A bucket that reduced certifies (_certified) keeps the bound on the
    sum of |slot| that fit gave it, over its gcd, as its norm: an upper
    bound, read off no slot.  Slots are read only on output (leave), when
    a certificate fails, and before a widen that rests on such a norm:
    _fitted then makes the norms exact first, so S only widens where the
    exact sums call for it.
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
                if t < 0:
                    t = 0
                outer = key - t * step
                rows[outer] = rows.get(outer, 0) + (v << width * t)
            rows.norm, rows.exact = norms[l], True
            self.buckets.append(rows)
            out[l] = (den, rows)
        return out

    def fit(self, r_scale: int, r: dict, terms: list) -> int:
        # widen S for acc = r_scale R + sum scale A X; returns the bound on
        # the sum of |slot| of acc that S holds
        def bound():
            total = r.norm * r_scale if r else 0
            for scale, a, x in terms:
                total += abs(scale) * a.norm * x.norm
            return total
        return self._fitted(bound, [r, *chain.from_iterable((a, x) for _, a, x in terms)])

    def reduced(self, den: int, acc: dict[int, int], bound: int):
        # _reduced on rows, bound >= the sum of |slot| of acc (fit): over
        # g = gcd(den, row ints) with norm bound // g when _certified proves g
        # the slots' gcd, else over the gcd and exact norm read from each slot
        rows = {key: r for key, r in acc.items() if r} if 0 in acc.values() else acc
        if not rows:
            return None
        g = math.gcd(den, *rows.values())
        quotients = _certified(rows, g, bound, self.width)
        exact = quotients is None
        if exact:
            g, bound = den, 0
            for r in rows.values():
                vs = _slots(r, self.width)
                bound += sum(map(abs, vs))
                g = math.gcd(g, *vs)
            quotients = map(floordiv, rows.values(), repeat(g))
        bucket = _RowBucket(zip(rows, quotients))
        bucket.norm, bucket.exact = bound // g, exact
        self.buckets.append(bucket)
        return den // g, bucket

    def products(self, pairs: list) -> tuple[int, dict[int, int]]:
        # _products on row buckets, S first widened for the sum, as in fit
        den = math.lcm(*(da * db for (da, _), (db, _) in pairs))
        self._fitted(lambda: sum(den // (da * db) * a.norm * b.norm for (da, a), (db, b) in pairs),
                     [rows for pair in pairs for _, rows in pair])
        return _products(pairs)

    def leave(self, buckets: dict) -> tuple[int, dict[int, int]]:
        # row buckets as one per-key (den, nums) over their lcm, key = outer
        # + t step; a key may sit in several rows, so its slots are summed.
        # A cancelled row stays as a 0 entry and is skipped unread
        den = math.lcm(*(d for d, _ in buckets.values()))
        step, width, nums = self.step, self.width, {}
        get = nums.get
        for d, rows in buckets.values():
            scale = den // d
            for outer, r in rows.items():
                if not r:
                    continue
                for t, v in enumerate(_slots(r, width)):
                    if v:
                        key = outer + t * step
                        nums[key] = get(key, 0) + v * scale
        self.buckets.clear()
        return den, nums

    def _fitted(self, bound, buckets: list) -> int:
        # widen S for bound(), a sum over the buckets' norms, and return it;
        # a widen first makes their upper-bound norms exact, so S is what
        # exact norms give
        total = bound()
        if total.bit_length() + 2 > self.width:
            loose = [rows for rows in buckets if rows and not rows.exact]
            for rows in loose:
                # a bucket can be listed twice
                if not rows.exact:
                    rows.norm = sum(sum(map(abs, _slots(r, self.width))) for r in rows.values())
                    rows.exact = True
            if loose:
                total = bound()
            self._widen(total)
        return total

    def _widen(self, bound: int):
        # the smallest multiple of 64 with bound < 2^(S-2), rows repacked
        need = bound.bit_length() + 2
        if need <= self.width:
            return
        old, self.width = self.width, -(-need // 64) * 64
        for rows in self.buckets:
            for key, r in rows.items():
                rows[key] = sum(v << self.width * t for t, v in enumerate(_slots(r, old)))


def _certified(rows: dict[int, int], g: int, bound: int, width: int):
    """The quotients r // g of the row ints when g divides every width-bit
    slot of every row, else None, read with one masked test per row and
    no slot decoded.

    g divides den and each r, so it is a multiple of the slots' gcd, and
    1 certifies itself.  With 0 <= bound < 2^(width-2) and every slot's
    |v| summed to at most bound, g divides every slot exactly when
    g <= bound and every balanced width-bit digit of each q = r // g lies
    in [-c, c), c = bound // g + 1: then g c <= 2 bound < 2^(width-1), so
    g times q's digits are r's own balanced digits.  That is sound for any
    such bound, even one below the sum, which only costs certificates.
    With ONES a 1 in each of k slots, k covering r, the digits lie in
    [-c, c) when x = q + c ONES has 0 <= x < 2^(k width), no bit >= b set
    in any slot, and none set in x + (2^b - 2c) ONES either, b being the
    bit length of 2c - 1: a slot below 2^b is below 2c exactly when adding
    2^b - 2c to it leaves it below 2^b.  The range test and the two masks
    are one AND, mask holding every bit from k width up, as a negative int.
    """
    if g == 1:
        return rows.values()
    if g > bound:
        return None
    c = bound // g + 1
    b = (2 * c - 1).bit_length()
    k = max(map(int.bit_length, rows.values())) // width + 1
    ones = ((1 << k * width) - 1) // ((1 << width) - 1)
    mask = ((1 << width) - (1 << b)) * ones | -1 << k * width
    quotients = list(map(floordiv, rows.values(), repeat(g)))
    lifted = list(map(add, quotients, repeat(c * ones)))
    if any(map(and_, map(or_, lifted, map(add, lifted, repeat(((1 << b) - 2 * c) * ones))),
               repeat(mask))):
        return None
    return quotients


def _slots(r: int, width: int) -> list[int]:
    # the balanced width-bit digits of r, lowest first: the slots of a row
    mask, half = (1 << width) - 1, 1 << (width - 1)
    out = []
    while r:
        v = (r + half & mask) - half
        out.append(v)
        r = (r - v) >> width
    return out


# terms as packed keys with int numerators over one common denominator
_Operand = namedtuple("_Operand", "packer den nums")


def _encoded(n: int, m: int, terms: list) -> _Operand:
    # terms (row, num, den), row the digits [*h, b, *g] of a class, as one
    # operand: one packer sized from the largest |coordinate|, numerators
    # over the lcm of the denominators, duplicate keys summed
    if not terms:
        return _Operand(_Packer(n, m, 0), 1, {})
    rows, nums, dens = zip(*terms)
    packer = _Packer(n, m, max(map(abs, chain.from_iterable(rows))))
    lcm = math.lcm(*dens)
    acc: dict[int, int] = {}
    get = acc.get
    for key, num, den in zip(packer.keys(list(zip(*rows))), nums, dens):
        acc[key] = get(key, 0) + num * (lcm // den)
    return _Operand(packer, lcm, acc)


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


def _graded(op: _Operand, sigma: tuple[int, ...], packer: _Packer, trunc: int | None = None,
            read: tuple | None = None):
    # an operand's terms of grade <= trunc (all of them without a trunc)
    # as {grade: (den, nums)} keyed on packer, each bucket over its reduced
    # denominator, read off its digit columns and their grades: read, the
    # (cols, grades) pair when the caller has them, else read here; keys
    # move digit by digit only if the widths differ
    home, den, nums = op
    if read is None:
        cols = home.columns(nums)
        read = cols, _grades(cols[home.m + 1:], sigma, len(nums))
    cols, grades = read
    keys = nums if packer.w == home.w else packer.keys(cols)
    by_grade: dict[int, dict[int, int]] = {}
    for key, v, l in zip(keys, nums.values(), grades):
        if trunc is None or l <= trunc:
            by_grade.setdefault(l, {})[key] = v
    if den == 1:
        return {l: (1, bucket) for l, bucket in by_grade.items()}
    return {l: _reduced(den, bucket) for l, bucket in by_grade.items()}


def _summed(buckets: list) -> tuple[int, dict[int, int]]:
    # (den, nums) of the sum of the (den, nums) buckets, the numerators of
    # shared keys added over the buckets' lcm; a lone bucket is returned
    # as it is, not copied, and no bucket sums to (1, {}).  Otherwise a
    # bucket with den < 0 is subtracted, and the sum starts from a copy of
    # the largest bucket, made at C speed, and the others are added into
    # it: neither the list nor a bucket given is changed
    if len(buckets) < 2:
        return buckets[0] if buckets else (1, {})
    den = math.lcm(*(d for d, _ in buckets))
    big = max(range(len(buckets)), key=lambda i: len(buckets[i][1]))
    d, nums = buckets[big]
    scale = den // d
    acc = dict(nums) if scale == 1 else dict(zip(nums, map(mul, nums.values(), repeat(scale))))
    get = acc.get
    for d, nums in buckets[:big] + buckets[big + 1:]:
        scale = den // d
        for key, v in nums.items():
            acc[key] = get(key, 0) + v * scale
    return den, acc


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


def _times_powers(parts: list, u_by_grade: dict,
                  trunc: int | None = None) -> tuple[int, dict[int, int]]:
    """(den, nums) of sum p (1 + u)**k over the (p, k) in parts, u given
    by its grade buckets, every grade >= 1.

    (1 + u)**k is J.C.P. Miller's recurrence, the graded solve of
    theta(F) f = k theta(f) F:

        l F_l = sum_j ((k + 1) j - l) u_j F_{l-j},   F_0 = 1,

    from grade 0 up to trunc, or to k max L(u), where an exact power ends,
    about |u| |F| pairs, once per distinct k; each p is then convolved into
    the buckets of its power.  A negative k needs a trunc.
    """
    top = max(u_by_grade, default=0)
    powers: dict[int, list] = {}
    pairs = []
    for p, k in parts:
        if k not in powers:
            fk = _graded_solve({0: (1, {0: 1})}, u_by_grade, k * top if trunc is None else trunc,
                               lambda j, l: ((k + 1) * j - l, l))
            powers[k] = list(fk.values())
        pairs += [(p, x) for x in powers[k]]
    # the pairs hold the only references, so each power is freed as used
    powers.clear()
    return _products(pairs)


def _convolve(acc: dict[int, int], a: dict[int, int], b: dict[int, int], scale: int):
    # acc += scale * a * b on packed keys.  Into an empty acc the products
    # of a's first term meet no key already there, so they are written at
    # C speed
    terms = iter(a.items())
    if not acc and a:
        k1, n1 = next(terms)
        acc.update(zip(map(add, b, repeat(k1)), map(mul, b.values(), repeat(n1 * scale))))
    get = acc.get
    b_items = list(b.items())
    for k1, n1 in terms:
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
    a row layout, R and A come in as its row buckets and X goes out as
    them; the caller enters and leaves the rows.
    """
    if not rhs:
        return {}
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
            bound = rows.fit(den // r_den, r, terms)
        acc = {key: v * (den // r_den) for key, v in r.items()}
        for scale, a, x in terms:
            _convolve(acc, a, x, scale)
        bucket = _reduced(den, acc) if rows is None else rows.reduced(den, acc, bound)
        if bucket:
            sol[l] = bucket
    return sol


def _lowest_terms(den: int, nums) -> tuple:
    # (den, nums), a list or tuple of ints, over their gcd, as they are
    # when it is 1: the canonical form of an int column over den
    g = math.gcd(den, *nums)
    if g > 1:
        return den // g, [v // g for v in nums]
    return den, nums


def _reduced(den: int, acc: dict[int, int]):
    # (den, nums) of a bucket without its zero terms, over its reduced
    # denominator; None when every term cancelled.  acc itself is handed
    # on when no term cancelled and the gcd is 1
    if 0 in acc.values():
        acc = {key: v for key, v in acc.items() if v}
    if not acc:
        return None
    g = math.gcd(den, *acc.values())
    if g > 1:
        den //= g
        acc = dict(zip(acc, map(floordiv, acc.values(), repeat(g))))
    return den, acc


def _unpacked(n: int, m: int, packer: _Packer, den: int, nums: dict[int, int]) -> ClassSeries:
    # a kernel result, one (den, nums) bucket, as a ClassSeries on its
    # packer, cancelled terms dropped: nums itself is kept unless one did
    if 0 in nums.values():
        nums = {key: v for key, v in nums.items() if v}
    s = ClassSeries.__new__(ClassSeries)
    s.n, s.m, s._packed = n, m, _Operand(packer, den, nums)
    return s


def _packed_sum(n: int, m: int, parts: list[tuple[int, ClassSeries]],
                degree: int | None = None):
    # the sum of the parts (sign, series), sign 1 or -1, on the widest of
    # their packers, held packed; with a degree, only its terms of
    # gamma-degree <= degree.  A part's keys are moved digit by digit only
    # if its packer is narrower; its sign goes on its bucket's den
    read = [(sign, part._packed) for sign, part in parts]
    packer = max((home for _, (home, _, _) in read), key=attrgetter("bound"))
    buckets = []
    for sign, (home, d, nums) in read:
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
        buckets.append((sign * d, nums if keys is nums else dict(zip(keys, vals))))
    return _unpacked(n, m, packer, *_summed(buckets))


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
    _require_series(f)
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
    _require(records, Iterable, "series records")
    return _unpacked(n, m, *_encoded(n, m, [_record(rec, n, m) for rec in records]))


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
