"""Exact Novikov-field arithmetic and numeric series evaluation.

A NovikovScalar is a finite sum of c * T^e with rational c and e, held as
int columns: strictly increasing exponents over one reduced common
denominator and nonzero coefficients over another, so equal scalars hold
equal columns.  Arithmetic is series' bucket arithmetic on T-exponent
keys: an operand is a (den, {exponent: numerator}) bucket, its exponents
ints over a denominator shared with the other operand; products convolve
buckets with series._products, and _merged, the one way from int buckets
to a scalar, sums them with series._summed, then sorts and drops zero
terms and terms at or above the cutoff.  Every power and inverse is one
Miller solve, series._times_powers, on x = c0*T^e0*(1 + r) with r in
one grade (_power).  The Fraction terms are built only when read.  An
optional cutoff records that terms with exponent >= cutoff have been
dropped; all arithmetic propagates cutoffs conservatively so reported
terms are always complete.  Valuation is the smallest exponent present,
infinity for zero.

NovikovLaurent is a Laurent polynomial in n torus variables with
NovikovScalar coefficients; it carries the toric superpotentials and
Gauss valuations over a polytope.  evaluate() sends the
symbolic class series of the wallcross module to actual scalars once
energies and a torus point are chosen.  It checks the series shape once
per call, and then one pass (_evaluated) values each class at the point
on integer T-exponents over one common denominator, read off the
energies and the point before the pass, taking each term's boundary
unchecked.  Each distinct coordinate power is made once, when a term
first needs it.  A power of a coordinate that is one exact term c*T^e
shifts a term's int exponent by its exponent and scales its int
numerator and denominator by its coefficient's (_monomial_power); every
other power is folded through NovikovScalar's product rule.  Each term is
then one pair (term bucket, fold), and one series._products call sums
them all into the bucket that _merged turns into the result.

At a monomial point, whose n coordinates are each one exact term, every
fold is 1: a class evaluates to one exact term and evaluation is
multiplicative on classes.  evaluate_chekanov reads the generator values
off that same pass to evaluate the compact Chekanov superpotential in
factored form without expanding it, on a fan with every p_a >= 0 and
sphere energies; evaluate on the expanded series is that path's oracle.
Every other point stays on evaluate: the factored form needs x_k**-1 for
each ev(gamma_k) even where no expanded term does, and a cutoff would
spread through ev(f)**p_a differently from the per-term cutoffs.  The
expanded series' first term, beta_hat, is valued alone before it is
built, so a point whose x_n cannot be inverted is refused without it.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping, Sequence
from fractions import Fraction

from .errors import (
    BadParams,
    DimensionMismatch,
    DivisionByZero,
    EmptyPolytope,
    EnergyViolation,
    OutsidePolytope,
    ZeroCoordinate,
)
from .fan import (
    EnergyValues,
    FanSpec,
    _boundary,
    _check_class_shape,
    _fraction_texts,
    _require,
    _require_rationals,
    _require_seq,
    _Value,
    beta_prime_class,
    gamma_class,
    parse_energies,
    require_int,
    require_ints,
    require_rational,
)
from .series import _lowest_terms, _products, _require_series, _summed, _times_powers
from .wallcross import Ambient, _chekanov_parts, chekanov_superpotential

INF = math.inf


def _min_cut(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _over(qs: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
    # the Fractions qs as ints over their reduced common denominator
    d = math.lcm(*(q.denominator for q in qs))
    return d, tuple(q.numerator * (d // q.denominator) for q in qs)


def _int_cut(cutoff, d: int):
    # the int bound b with e < b exactly when e / d < cutoff, for ints e
    return None if cutoff is None else -(-cutoff.numerator * d // cutoff.denominator)


def _pair(term) -> Sequence:
    # one (exponent, coefficient) term of a scalar's terms, not yet read
    if len(_require_seq(term, "scalar term")) != 2:
        raise BadParams(f"scalar term must be an (exponent, coefficient) pair, got {term!r}")
    return term


class NovikovScalar:
    """Finite T-series with strictly increasing rational exponents.

    A scalar is held as int columns (d, exps, den, nums): the term
    (nums[i] / den) * T^(exps[i] / d), exponents strictly increasing,
    coefficients nonzero, each column over its reduced common denominator,
    so equal scalars hold equal columns.  columns() reads them; terms
    builds the Fraction pairs on each read.
    """

    __slots__ = ("_ints", "cutoff")

    def __init__(self, terms: Sequence[tuple] = (), cutoff=None):
        # terms: a sequence of (exponent, coefficient) pairs in any order,
        # each value passing fan.require_rational; the coefficients of equal
        # exponents are summed and zero sums dropped, as in from_terms, but
        # no term at or above the cutoff is dropped
        pairs = [(require_rational(e, "exponent"), require_rational(c, "coefficient"))
                 for e, c in map(_pair, _require_seq(terms, "scalar terms"))]
        d, exps = _over([e for e, _ in pairs])
        den, nums = _over([c for _, c in pairs])
        self._ints = _merged(d, [(den, {e: v}) for e, v in zip(exps, nums)], None)._ints
        self.cutoff = None if cutoff is None else require_rational(cutoff, "cutoff")

    @classmethod
    def _of(cls, d: int, exps, den: int, nums, cutoff=None) -> "NovikovScalar":
        # a scalar straight from int columns: exps strictly increasing over
        # d > 0, nums nonzero over den > 0; both are reduced here
        d, exps = _lowest_terms(d, exps)
        den, nums = _lowest_terms(den, nums)
        x = cls.__new__(cls)
        x._ints = (d, tuple(exps), den, tuple(nums))
        x.cutoff = cutoff
        return x

    @staticmethod
    def from_terms(pairs: Sequence[tuple], cutoff=None) -> "NovikovScalar":
        """Sum of c * T^e over the (e, c) pairs, dropping e >= cutoff.

        pairs is a sequence of two-item sequences, and every exponent,
        coefficient and the cutoff pass fan.require_rational, so a float is
        rejected, never rounded.
        """
        if cutoff is not None:
            cutoff = require_rational(cutoff, "cutoff")
        x = NovikovScalar(pairs)
        return x if cutoff is None else x.truncated(cutoff)

    def columns(self) -> tuple[int, tuple[int, ...], int, tuple[int, ...]]:
        """(d, exps, den, nums): the term (nums[i] / den) * T^(exps[i] / d)
        for each i, in increasing exponent.  No Fraction is built."""
        return self._ints

    @property
    def terms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The (exponent, coefficient) Fraction pairs, built on each read."""
        d, exps, den, nums = self._ints
        return tuple((Fraction(e, d), Fraction(v, den)) for e, v in zip(exps, nums))

    @property
    def val(self):
        """Smallest exponent, infinity for the zero scalar."""
        d, exps, _, _ = self._ints
        return Fraction(exps[0], d) if exps else INF

    def is_zero(self) -> bool:
        return not self._ints[1]

    def coeff(self, e) -> Fraction:
        e = require_rational(e, "exponent")
        d, exps, den, nums = self._ints
        # an exponent of the scalar is an int over d
        if d % e.denominator == 0:
            k = e.numerator * (d // e.denominator)
            if k in exps:
                return Fraction(nums[exps.index(k)], den)
        return Fraction(0)

    def __eq__(self, other):
        if not isinstance(other, NovikovScalar):
            return NotImplemented
        return self._ints == other._ints and self.cutoff == other.cutoff

    def __hash__(self):
        return hash((self._ints, self.cutoff))

    def __repr__(self):
        return f"NovikovScalar(terms={self.terms!r}, cutoff={self.cutoff!r})"

    def __add__(self, other: "NovikovScalar") -> "NovikovScalar":
        _require(other, NovikovScalar, "scalar operand")
        dx, xe, denx, xn = self._ints
        dy, ye, deny, yn = other._ints
        d = math.lcm(dx, dy)
        sx, sy = d // dx, d // dy
        return _merged(d, [(denx, dict(zip([e * sx for e in xe], xn))),
                           (deny, dict(zip([e * sy for e in ye], yn)))],
                       _min_cut(self.cutoff, other.cutoff))

    def __neg__(self) -> "NovikovScalar":
        d, exps, den, nums = self._ints
        return NovikovScalar._of(d, exps, den, [-v for v in nums], self.cutoff)

    def __sub__(self, other: "NovikovScalar") -> "NovikovScalar":
        _require(other, NovikovScalar, "scalar operand")
        return self + (-other)

    def __mul__(self, other: "NovikovScalar") -> "NovikovScalar":
        _require(other, NovikovScalar, "scalar operand")
        # both factors' exponents and cutoffs as ints over one denominator d
        dx, xe, denx, xn = self._ints
        dy, ye, deny, yn = other._ints
        cuts = [c for c in (self.cutoff, other.cutoff) if c is not None]
        d = math.lcm(dx, dy, *(c.denominator for c in cuts))
        sx, sy = d // dx, d // dy
        kept, cut = _product(
            dict(zip([e * sx for e in xe], xn)), _int_cut(self.cutoff, d),
            dict(zip([e * sy for e in ye], yn)), _int_cut(other.cutoff, d),
        )
        return _merged(d, [(denx * deny, kept)], None if cut is None else Fraction(cut, d))

    def __pow__(self, k: int) -> "NovikovScalar":
        return scalar_pow(self, k)

    def truncated(self, cutoff) -> "NovikovScalar":
        d, exps, den, nums = self._ints
        return _merged(d, [(den, dict(zip(exps, nums)))],
                       _min_cut(self.cutoff, require_rational(cutoff, "cutoff")))

    def __str__(self):
        d, exps, den, nums = self._ints
        parts = []
        for e, c in zip(_fraction_texts(d, exps), _fraction_texts(den, nums)):
            if e == "0":
                frag = c
            elif c == "1":
                frag = f"T^{e}"
            elif c == "-1":
                frag = f"-T^{e}"
            else:
                frag = f"{c}*T^{e}"
            if parts and not frag.startswith("-"):
                parts.append(f"+ {frag}")
            elif parts:
                parts.append(f"- {frag[1:]}")
            else:
                parts.append(frag)
        body = " ".join(parts) or "0"
        if self.cutoff is not None:
            body += f" + O(T^{self.cutoff})"
        return body


def _merged(d: int, buckets: list, cutoff) -> NovikovScalar:
    # the scalar sum of the int buckets (den, {e: v}), each term (v / den)
    # * T^(e / d), dropping zero terms and e / d >= cutoff: the one way
    # from int buckets to a scalar
    den, nums = _summed(buckets)
    bound = _int_cut(cutoff, d)
    exps = sorted(e for e, v in nums.items() if v and (bound is None or e < bound))
    return NovikovScalar._of(d, exps, den, [nums[e] for e in exps], cutoff)


def _product(x: dict, xc, y: dict, yc) -> tuple:
    """The (terms, cutoff) of x * y from those of x and y, each given by
    its terms {exponent: numerator}, ints over one common exponent
    denominator, and its cutoff, an int over it too (NovikovScalar.__mul__
    and evaluate alike); the product's numerators are over the product of
    the factors' coefficient denominators.  Each cutoff is shifted by the
    other factor's floor, the smallest exponent any completion of it could
    have, and the product keeps the smaller shifted cutoff; zero terms and
    terms at or above the cutoff are dropped."""
    cut = None
    if xc is not None:
        floor = _min_cut(min(y, default=None), yc)
        cut = None if floor is None else xc + floor
    if yc is not None:
        floor = _min_cut(min(x, default=None), xc)
        cut = _min_cut(cut, None if floor is None else yc + floor)
    _, merged = _products([((1, x), (1, y))])
    return {e: v for e, v in merged.items() if v and (cut is None or e < cut)}, cut


def t_monomial(e, c=1) -> NovikovScalar:
    return NovikovScalar.from_terms([(e, c)])


def constant(c) -> NovikovScalar:
    return t_monomial(0, c)


ZERO = NovikovScalar()
ONE = constant(1)


def scalar_val(x: NovikovScalar):
    return x.val


def _power(x: NovikovScalar, k: int, cutoff=None) -> NovikovScalar:
    """x**k for an int k != 0, cut at cutoff too when one is given.

    x = c0*T^e0*(1 + r) with val(r) > 0: (c0*T^e0)**k is _monomial_power's
    and (1 + r)**k is one Miller solve, series._times_powers, with every
    term of r in grade 1.  With x's cutoff C the result keeps
    C + (k - 1) min(e0, C), as k - 1 products by the cutoff rule do, and a
    k < 0 keeps that of x**-1 raised to -k, x**-1 of valuation -e0 and
    cutoff C - 2 e0.  Level l of the solve lies at T^(>= k e0 + l val(r)),
    so a cut solve stops at the last level below the cutoff, or at level
    k, where a power k > 0 ends.  A negative power needs x nonzero, with a
    term below its cutoff when it has one (else its leading term is
    unknown), and, when x and cutoff are exact, one term.
    """
    d, exps, den, nums = x.columns()
    if k < 0:
        if not exps:
            raise DivisionByZero("inverse of the zero scalar")
        if x.cutoff is not None and x.val >= x.cutoff:
            raise DivisionByZero(f"inverse of a scalar with no term below its cutoff {x.cutoff}")
        if cutoff is not None:
            cutoff = require_rational(cutoff, "cutoff")
        elif x.cutoff is None and len(exps) > 1:
            raise ValueError("inverse of an exact multi-term scalar needs a cutoff")
    cut = x.cutoff
    if cut is not None:
        lead = x.val
        if k < 0:
            lead, cut = -lead, cut - 2 * lead
        cut += (abs(k) - 1) * min(lead, cut)
    cut = _min_cut(cut, cutoff)
    if not exps:
        return _merged(d, [], cut)
    e0, v0 = exps[0], nums[0]
    r = {e - e0: v if v0 > 0 else -v for e, v in zip(exps[1:], nums[1:])}
    level = None
    if cut is not None and r:
        level = max(math.ceil((cut - k * x.val) * d / (exps[1] - e0)) - 1, 0)
        if k > 0:
            level = min(level, k)
    e, num, den_k = _monomial_power((d, (e0,), den, (v0,)), k, d)
    power = _times_powers([((den_k, {e: num}), k)], {1: (abs(v0), r)} if r else {}, level)
    return _merged(d, [power], cut)


def scalar_inverse(x: NovikovScalar, cutoff=None) -> NovikovScalar:
    """1/x, cut at x's cutoff less 2 val(x) and at the cutoff argument; a
    multi-term x needs one of the two, as its inverse does not terminate."""
    _require(x, NovikovScalar, "scalar operand")
    return _power(x, -1, cutoff)


def scalar_pow(x: NovikovScalar, k: int) -> NovikovScalar:
    _require(x, NovikovScalar, "scalar operand")
    k = require_int(k, "exponent")
    return _power(x, k) if k else ONE


def trop(point: Sequence[NovikovScalar]) -> tuple:
    """Coordinate-wise valuation of a torus point."""
    out = []
    for i, x in enumerate(_require_seq(point, "point")):
        _require(x, NovikovScalar, f"coordinate {i}")
        if x.is_zero():
            raise ZeroCoordinate(f"coordinate {i} is zero")
        out.append(x.val)
    return tuple(out)


class NovikovLaurent(_Value):
    """Laurent polynomial in n variables with NovikovScalar coefficients.

    Unlike the other value types its fields can be reassigned, and it is
    unhashable.
    """

    __slots__ = ("n", "terms")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, n: int, terms: dict[tuple[int, ...], NovikovScalar]):
        n = require_int(n, "Laurent n")
        if n < 0:
            raise BadParams(f"Laurent n must be >= 0, got {n}")
        _require(terms, Mapping, "Laurent terms")
        clean = {}
        for nu, s in terms.items():
            nu = require_ints(nu, "exponent")
            if len(nu) != n:
                raise DimensionMismatch(f"exponent {nu} does not have length {n}")
            _require(s, NovikovScalar, f"coefficient of {nu}")
            if not s.is_zero():
                clean[nu] = s
        self.n = n
        self.terms = clean

    def items(self):
        return sorted(self.terms.items())


def laurent_mul(f: NovikovLaurent, g: NovikovLaurent) -> NovikovLaurent:
    _require(f, NovikovLaurent, "Laurent operand")
    _require(g, NovikovLaurent, "Laurent operand")
    if f.n != g.n:
        raise DimensionMismatch("cannot multiply Laurent series in different dimensions")
    out: dict[tuple[int, ...], NovikovScalar] = {}
    for nu1, s1 in f.terms.items():
        for nu2, s2 in g.terms.items():
            key = tuple(a + b for a, b in zip(nu1, nu2))
            prod = s1 * s2
            out[key] = out[key] + prod if key in out else prod
    return NovikovLaurent(f.n, out)


def gauss_valuation(f: NovikovLaurent, vertices) -> Fraction | float:
    """Valuation of the Laurent polynomial f over the affinoid domain with
    the given polytope vertices: min over monomials of val(coeff) + min over
    vertices <nu, u>."""
    verts = [_require_rationals(u, "vertex") for u in _require_seq(vertices, "vertices")]
    if not verts:
        raise EmptyPolytope("need at least one vertex")
    if not isinstance(f, NovikovLaurent):
        raise BadParams(f"gauss_valuation needs a NovikovLaurent, got {f!r}")
    best = INF
    for nu, s in f.items():
        v = s.val
        if v is INF:
            continue
        if any(len(u) != len(nu) for u in verts):
            raise DimensionMismatch("vertex and exponent dimensions differ")
        low = min(sum(a * b for a, b in zip(nu, u)) for u in verts)
        best = min(best, v + low)
    return best


def toric_superpotential(normals, constants, q, corrections=None) -> NovikovLaurent:
    """Leading-order superpotential of a toric moment polytope at interior
    point q: one monomial T^{l_i(q)} Y^{v_i} per facet, l_i(q) = <v_i, q> - c_i.

    corrections, when given, supplies one scalar multiplier per facet (the
    sphere-bubbling factors); this function never invents them.
    """
    normals = [require_ints(v, "facet normal") for v in _require_seq(normals, "facet normals")]
    constants = _require_rationals(constants, "facet constants")
    q = _require_rationals(q, "base point")
    if len(normals) != len(constants):
        raise DimensionMismatch("need one constant per facet normal")
    if any(len(v) != len(q) for v in normals):
        raise DimensionMismatch("facet normals and base point dimensions differ")
    if corrections is not None:
        if len(_require_seq(corrections, "corrections")) != len(normals):
            raise DimensionMismatch("need one correction per facet")
        for i, x in enumerate(corrections):
            _require(x, NovikovScalar, f"correction {i}")
    out: dict[tuple[int, ...], NovikovScalar] = {}
    for i, (v, c) in enumerate(zip(normals, constants)):
        ell = sum(a * b for a, b in zip(v, q)) - c
        if ell <= 0:
            raise OutsidePolytope(i, f"facet {i}: l_{i}(q) = {ell} is not positive")
        coeff = t_monomial(ell)
        if corrections is not None:
            coeff = coeff * corrections[i]
        out[v] = out[v] + coeff if v in out else coeff
    return NovikovLaurent(len(q), out)


class EnergyAssignment(_Value):
    """Areas for the generator classes of a fan: every area exact, one per
    gamma_k and, when h is given, one per sphere class.  assign_energies
    also checks that they are positive."""

    __slots__ = ("fan", "beta_hat", "gamma", "h")

    def __init__(self, fan: FanSpec, beta_hat: Fraction, gamma: tuple[Fraction, ...],
                 h: tuple[Fraction, ...] | None):
        _require(fan, FanSpec, "fan spec")
        beta_hat = require_rational(beta_hat, "E(beta_hat)")
        gamma = _require_rationals(gamma, "gamma energies")
        if len(gamma) != fan.n - 1:
            raise DimensionMismatch(f"need {fan.n - 1} gamma energies, got {len(gamma)}")
        if h is not None:
            h = _require_rationals(h, "sphere energies")
            if len(h) != fan.m:
                raise DimensionMismatch(f"need {fan.m} sphere energies, got {len(h)}")
        _Value.__init__(self, fan, beta_hat, gamma, h)

    def energy_of(self, cls) -> Fraction:
        """Area of a class of the fan's shape by linearity."""
        _check_class_shape(self.fan, cls)
        total = self.beta_hat * cls.b
        for k, gk in enumerate(cls.g):
            total += self.gamma[k] * gk
        if any(cls.h):
            self._require_h(cls)
            for a, ha in enumerate(cls.h):
                total += self.h[a] * ha
        return total

    def _require_h(self, cls):
        if self.h is None:
            raise EnergyViolation(
                f"class {cls} needs sphere-class energies but none were assigned"
            )


def assign_energies(spec: FanSpec, values=None) -> EnergyAssignment:
    """Validate raw energy values against the fan.

    Requires E(beta_hat) > 0 and every E(gamma_k) > 0, and, when sphere
    energies are present, that each derived disk class at infinity has
    E(beta'_a) = E(H_a) - p_a E(beta_hat) - sum_k v_{ak} E(gamma_k) > 0.
    values is an EnergyValues or an energies mapping; both go through
    fan.parse_energies, so a float area raises BadParams, as does a spec
    that is not a FanSpec.
    """
    _require(spec, FanSpec, "fan spec")
    if values is None:
        values = spec.energies
    if values is None:
        raise BadParams("no energy values given and the fan spec carries none")
    if isinstance(values, EnergyValues):
        values = {"beta_hat": values.beta_hat, "gamma": values.gamma, "H": values.h}
    values = parse_energies(values)
    if len(values.gamma) != spec.n - 1:
        raise DimensionMismatch(
            f"need {spec.n - 1} gamma energies, got {len(values.gamma)}"
        )
    if values.beta_hat <= 0:
        raise EnergyViolation(f"E(beta_hat) = {values.beta_hat} must be positive")
    for k, e in enumerate(values.gamma, start=1):
        if e <= 0:
            raise EnergyViolation(f"E(gamma_{k}) = {e} must be positive")
    # the constructor checks the number of sphere energies
    ea = EnergyAssignment(spec, values.beta_hat, values.gamma, values.h)
    if values.h is not None:
        for a in range(1, spec.m + 1):
            e_prime = ea.energy_of(beta_prime_class(spec, a))
            if e_prime <= 0:
                raise EnergyViolation(
                    f"E(beta'_{a}) = {e_prime} must be positive; "
                    f"raise E(H_{a}) or shrink the disk energies"
                )
    return ea


def _exact_term(x: NovikovScalar):
    # the columns of x when it is one exact term c*T^e, else None
    if isinstance(x, NovikovScalar) and x.cutoff is None and len(x._ints[1]) == 1:
        return x._ints
    return None


def _monomial_power(term: tuple, w: int, d: int) -> tuple[int, int, int]:
    """(c*T^e)**w for the exact term with columns term, as the int
    T-exponent e * w over d, a multiple of the term's exponent
    denominator, and the int numerator and positive denominator of c**w.
    No Fraction is built."""
    ed, (e,), den, (num,) = term
    e *= d // ed
    if w < 0:
        # (c*T^e)**w = ((1/c)*T^-e)**|w|
        e, w = -e, -w
        num, den = (den, num) if num > 0 else (-den, -num)
    return e * w, num ** w, den ** w


def _check_point(spec: FanSpec, point: Sequence[NovikovScalar]):
    """evaluate's checks of the point alone: a sequence, the coordinate
    count, then trop's check of each coordinate."""
    if len(_require_seq(point, "point")) != spec.n:
        raise DimensionMismatch(f"point must have {spec.n} coordinates")
    trop(point)


def evaluate(s, ea: EnergyAssignment, point: Sequence[NovikovScalar]) -> NovikovScalar:
    """Numeric value of a class series at a torus point: each monomial of
    class c contributes coeff * T^{E(c)} * prod point_i^{boundary_i(c)}."""
    _require_series(s)
    _require(ea, EnergyAssignment, "energy assignment")
    spec = ea.fan
    _check_point(spec, point)
    items = s.items()
    if items and (s.n, s.m) != (spec.n, spec.m):
        # every class of s has the series' shape, so the first term fails
        # the shape check, after its own sphere-energy check
        cls = items[0][0]
        if any(cls.h):
            ea._require_h(cls)
        _check_class_shape(spec, cls)
    d, pairs, cut = _evaluated(ea, point, items)
    return _merged(d, [_products(pairs)], cut)


def _evaluated(ea: EnergyAssignment, point: Sequence[NovikovScalar], items) -> tuple:
    """(d, pairs, cut): one pair (term bucket, fold) per (class,
    coefficient) item, the item's value at the checked point being the
    product of the two, every T-exponent an int over the one denominator
    d, and cut the cutoff of their sum, or None.  Classes of the fan's
    shape only.  d is read off the energies and the point, then one pass
    checks each term's sphere energies, makes its powers and forms its
    pair, so errors come in the per-term order."""
    # _power keeps the exponents of x_i**w over x_i's denominator d_i and
    # its cutoff over lcm(d_i, den C_i), so d covers every power made below
    areas = (ea.beta_hat, *ea.gamma, *(ea.h or ()))
    d = math.lcm(*(q.denominator for q in areas), *(x.columns()[0] for x in point),
                 *(x.cutoff.denominator for x in point if x.cutoff is not None))
    # without H energies every class here has h = 0, so the dot product
    # may stop after the gamma coordinates
    energies = [q.numerator * (d // q.denominator) for q in areas]
    exact = [_exact_term(x) for x in point]
    # each distinct power x_i^w is made once, when a term first needs it.
    # A power of a one-exact-term coordinate is the product rule's own
    # case of an exact monomial factor: it shifts the other factor's terms
    # and cutoff by its floor, scales its coefficients and drops nothing.
    # So it is kept as _monomial_power's triple and goes into the term's
    # int exponent, numerator and denominator; every other power is kept
    # as its terms over d, int cutoff and coefficient denominator, and
    # folded through _product from 1.  A _products call on the pairs
    # shifts and scales every fold by its term and sums them.  The cutoff
    # is the min over the terms' cutoffs, so dropping at or above it once
    # keeps exactly what dropping after every addition would
    powers: dict[tuple[int, int], tuple] = {}
    pairs = []
    cut = None
    unit = {0: 1}
    for cls, coeff in items:
        if any(cls.h):
            ea._require_h(cls)
        e = sum(map(operator.mul, (cls.b, *cls.g, *cls.h), energies))
        num, den = coeff.numerator, coeff.denominator
        fold, fold_cut, fold_den = unit, None, 1
        for key in enumerate(_boundary(cls)):
            i, w = key
            if not w:
                continue
            power = powers.get(key)
            if exact[i]:
                if power is None:
                    power = powers[key] = _monomial_power(exact[i], w, d)
                pe, pn, pd = power
                e += pe
                num *= pn
                den *= pd
            else:
                if power is None:
                    x = scalar_pow(point[i], w)
                    xd, exps, xden, nums = x.columns()
                    power = powers[key] = (dict(zip([k * (d // xd) for k in exps], nums)),
                                           _int_cut(x.cutoff, d), xden)
                fterms, fcut, fden = power
                fold, fold_cut = _product(fold, fold_cut, fterms, fcut)
                fold_den *= fden
        pairs.append(((den, {e: num}), (fold_den, fold)))
        if fold_cut is not None:
            cut = _min_cut(cut, fold_cut + e)
    return d, pairs, None if cut is None else Fraction(cut, d)


def evaluate_chekanov(ea: EnergyAssignment, point: Sequence[NovikovScalar]) -> NovikovScalar:
    """The compact Chekanov superpotential of ea.fan evaluated at a point,
    equal to evaluate(chekanov_superpotential(ea.fan, COMPACT).series, ea,
    point), which is its oracle.

    At a monomial point (n coordinates, each one exact term c*T^e), a
    class evaluates to one exact term and evaluation is multiplicative on
    classes, so with every p_a >= 0 and sphere energies present

        ev(W) = ev(beta_hat) + sum_a ev(beta'_a) * ev(f)**p_a,
        ev(f) = 1 + sum_k ev(gamma_k),

    exactly, and the expanded series is never built.  The generator
    values are evaluate's own pass (_evaluated), where every fold is 1:
    int T-exponents over one common denominator with int numerators.
    They add like packed class keys, so the sum is series._times_powers,
    the Miller solve that times_powers uses too, with every ev(gamma_k) of
    grade 1.  The result is built straight from the solve's ints by
    _merged, with no Fraction per term.

    Any other input takes the expanded path, so it raises the same errors
    in the same order: ev(gamma_k) needs x_k**-1 even where no expanded
    term does, and a coordinate with several terms or a cutoff would carry
    its cutoff through ev(f)**p_a differently from the expanded terms.
    The parts come first, so no ray at infinity and a negative p_a raise
    as the expansion does; past them the expansion cannot fail, so
    evaluate's point checks run before it is built, and then beta_hat is
    valued alone.  beta_hat is the expanded series' first term (h = 0,
    where every other term has h = e_a), needs no sphere energy and has
    boundary (0, ..., 0, -1), so valuing it raises what the expanded path
    raises first, x_n**-1 of an exact multi-term x_n among them, and a
    point past it is expanded and evaluated as before.
    """
    _require(ea, EnergyAssignment, "energy assignment")
    spec = ea.fan
    parts = _chekanov_parts(spec)
    exact = [_exact_term(x) for x in _require_seq(point, "point")]
    factored = ea.h is not None and len(exact) == spec.n and None not in exact
    if factored:
        # ev(f) = 1 + u, u = sum_k ev(gamma_k) of grade 1 in a formal
        # grading; W = beta_hat * f**0 + sum_a beta'_a * f**p_a
        items = [(c, 1) for c, _ in parts] + [(gamma_class(spec, k), 1) for k in range(1, spec.n)]
    else:
        _check_point(spec, point)
        items = [(parts[0][0], 1)]
    d, pairs, _ = _evaluated(ea, point, items)
    if not factored:
        return evaluate(chekanov_superpotential(spec, Ambient.COMPACT).series, ea, point)
    u = _products(pairs[len(parts):])
    terms = [(term, p) for (term, _), (_, p) in zip(pairs, parts)]
    return _merged(d, [_times_powers(terms, {1: u})], None)
