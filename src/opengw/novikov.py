"""Exact Novikov-field arithmetic and numeric series evaluation.

A NovikovScalar is a finite sum of c * T^e with rational c and e, held as
int columns: strictly increasing exponents over one reduced common
denominator and nonzero coefficients over another, so equal scalars hold
equal columns.  Arithmetic is series' bucket arithmetic on T-exponent
keys: an operand is a (den, {exponent: numerator}) bucket, its exponents
ints over a denominator shared with the other operand; products convolve
buckets with series._products, and _merged, the one way from int buckets
to a scalar, sums them with series._summed, then sorts and drops zero
terms and terms at or above the cutoff.  The Fraction terms are built
only when read.  An optional cutoff records that terms with exponent >=
cutoff have been dropped; all arithmetic propagates cutoffs
conservatively so reported terms are always complete.  Valuation is the
smallest exponent present, infinity for zero.

NovikovLaurent is a Laurent polynomial in n torus variables with
NovikovScalar coefficients; it carries the toric superpotentials and
Gauss valuations over a polytope.  evaluate() sends the
symbolic class series of the wallcross module to actual scalars once
energies and a torus point are chosen.  It works on integer T-exponents
over one common denominator per call; its products follow the same rule
as NovikovScalar's.  It checks the series shape once per call and takes
each term's boundary unchecked.  A power of a coordinate that is one
exact term c*T^e shifts a term's int exponent by its exponent and scales
its int numerator and denominator by its coefficient's; every other
power is folded through that product rule.  Each term is then one pair
(term bucket, fold), and one series._products call sums them all into
the bucket that _merged turns into the result.

That shift and scale is the monomial-point character (monomial_character):
at a point whose n coordinates are each one exact term, a class evaluates
to one exact term and evaluation is multiplicative on classes.
wallcross.evaluate_chekanov uses it to evaluate the compact Chekanov
superpotential in factored form without expanding it, at a monomial point
of a fan with every p_a >= 0 and sphere energies; evaluate on the
expanded series is that path's oracle.  Every other point stays on
evaluate: the factored form needs x_k**-1 for each ev(gamma_k) even where
no expanded term does, and a cutoff would spread through ev(f)**p_a
differently from the per-term cutoffs.
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
    class_boundary,
    parse_energies,
    ray_decomposition,
    require_int,
    require_ints,
    require_rational,
)
from .series import _products, _require_series, _summed

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
        g = math.gcd(d, *exps)
        if g > 1:
            d //= g
            exps = [e // g for e in exps]
        g = math.gcd(den, *nums)
        if g > 1:
            den //= g
            nums = [v // g for v in nums]
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


def scalar_inverse(x: NovikovScalar, cutoff=None) -> NovikovScalar:
    """1/x by leading-monomial factorization and a geometric series.

    A multi-term x needs a cutoff (its own or the argument) because the
    geometric series does not terminate.
    """
    _require(x, NovikovScalar, "scalar operand")
    if x.is_zero():
        raise DivisionByZero("inverse of the zero scalar")
    d, exps, den, nums = x.columns()
    e0 = Fraction(exps[0], d)
    # 1/c0 = den / v0, over |v0|
    lead_inv = NovikovScalar._of(d, [-exps[0]], abs(nums[0]), [den if nums[0] > 0 else -den])
    if x.cutoff is not None:
        result_cut = x.cutoff - 2 * e0
        if cutoff is not None:
            result_cut = min(result_cut, require_rational(cutoff, "cutoff"))
    elif cutoff is not None:
        result_cut = require_rational(cutoff, "cutoff")
    else:
        if len(exps) > 1:
            raise ValueError("inverse of an exact multi-term scalar needs a cutoff")
        return lead_inv
    # x = c0 T^e0 (1 + r), val(r) > 0
    r = (x * lead_inv - ONE).truncated(result_cut + e0)
    acc = ONE.truncated(result_cut + e0)
    rpow = ONE.truncated(result_cut + e0)
    if not r.is_zero():
        step = r.val
        j = 1
        while j * step < result_cut + e0:
            rpow = rpow * (-r)
            if rpow.is_zero():
                break
            acc = acc + rpow
            j += 1
    return (lead_inv * acc).truncated(result_cut)


def scalar_pow(x: NovikovScalar, k: int) -> NovikovScalar:
    _require(x, NovikovScalar, "scalar operand")
    k = require_int(k, "exponent")
    if k < 0:
        return scalar_pow(scalar_inverse(x), -k)
    result = ONE
    base = x
    e = k
    while e:
        if e & 1:
            result = result * base
        e >>= 1
        if e:
            base = base * base
    return result


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
    """Validated areas for the generator classes of a fan."""

    __slots__ = ("fan", "beta_hat", "gamma", "h")

    def __init__(self, fan: FanSpec, beta_hat: Fraction, gamma: tuple[Fraction, ...],
                 h: tuple[Fraction, ...] | None):
        object.__setattr__(self, "fan", fan)
        object.__setattr__(self, "beta_hat", beta_hat)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "h", h)

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
    if values.h is not None:
        if len(values.h) != spec.m:
            raise DimensionMismatch(f"need {spec.m} sphere energies, got {len(values.h)}")
        for a in range(1, spec.m + 1):
            v, p = ray_decomposition(spec, a)
            e_prime = values.h[a - 1] - p * values.beta_hat
            for k in range(spec.n - 1):
                e_prime -= v[k] * values.gamma[k]
            if e_prime <= 0:
                raise EnergyViolation(
                    f"E(beta'_{a}) = {e_prime} must be positive; "
                    f"raise E(H_{a}) or shrink the disk energies"
                )
    return EnergyAssignment(spec, values.beta_hat, values.gamma, values.h)


def _exact_term(x: NovikovScalar):
    # the columns of x when it is one exact term c*T^e, else None
    if isinstance(x, NovikovScalar) and x.cutoff is None and len(x._ints[1]) == 1:
        return x._ints
    return None


def _monomial_power(term: tuple, w: int, d: int) -> tuple[int, int, int]:
    """The monomial-point character on one coordinate: (c*T^e)**w for the
    exact term with columns term, as the int T-exponent e * w over d, a
    multiple of the term's exponent denominator, and the int numerator and
    positive denominator of c**w.  No Fraction is built."""
    ed, (e,), den, (num,) = term
    e *= d // ed
    if w < 0:
        # (c*T^e)**w = ((1/c)*T^-e)**|w|
        e, w = -e, -w
        num, den = (den, num) if num > 0 else (-den, -num)
    return e * w, num ** w, den ** w


def monomial_character(ea: EnergyAssignment, point: Sequence[NovikovScalar]):
    """Evaluation at a monomial point as a character on classes.

    At a point of n coordinates x_i = c_i*T^{e_i}, each one exact term,
    the class c evaluates to the one exact term
    T^{E(c) + sum_i d_i(c) e_i} * prod_i c_i^{d_i(c)}, and this is
    multiplicative: ev(c + c') = ev(c) ev(c').  Returns (d, ev) with
    ev(cls) = (T-exponent * d, numerator, denominator), the T-exponents
    ints over one common denominator d; None when the point has the wrong
    number of coordinates or a coordinate that is not a NovikovScalar of
    one exact term, and a point that is not a sequence raises BadParams.
    ev checks the class shape and the sphere energies like evaluate.
    """
    spec = ea.fan
    terms = [_exact_term(x) for x in _require_seq(point, "point")]
    if len(terms) != spec.n or None in terms:
        return None
    areas = (ea.beta_hat, *ea.gamma, *(ea.h or ()))
    d = math.lcm(*(q.denominator for q in areas), *(t[0] for t in terms))

    def ev(cls) -> tuple[int, int, int]:
        q = ea.energy_of(cls)
        e, num, den = q.numerator * (d // q.denominator), 1, 1
        for i, wi in enumerate(class_boundary(spec, cls)):
            if wi:
                pe, pn, pd = _monomial_power(terms[i], wi, d)
                e, num, den = e + pe, num * pn, den * pd
        return e, num, den

    return d, ev


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
    # first pass, term by term: the checks and each distinct power x_i^w of
    # a coordinate that is not one exact term, computed once, so errors
    # come in the per-term order
    exact = [_exact_term(x) for x in point]
    powers: dict[tuple[int, int], NovikovScalar | None] = {}
    rows = []
    for cls, coeff in items:
        if any(cls.h):
            ea._require_h(cls)
        w = _boundary(cls)
        for i, wi in enumerate(w):
            if wi and (i, wi) not in powers:
                powers[(i, wi)] = None if exact[i] else scalar_pow(point[i], wi)
        rows.append(((cls.b, *cls.g, *cls.h), coeff, w))
    # every T-exponent below is an int numerator over one denominator d
    areas = (ea.beta_hat, *ea.gamma, *(ea.h or ()))
    dens = {q.denominator for q in areas}
    dens.update(t[0] for t in exact if t)
    for x in powers.values():
        if x is not None:
            dens.add(x.columns()[0])
            if x.cutoff is not None:
                dens.add(x.cutoff.denominator)
    d = math.lcm(*dens)

    # without H energies every class here has h = 0, so the dot product
    # may stop after the gamma coordinates
    energies = [q.numerator * (d // q.denominator) for q in areas]
    # a power of a one-exact-term coordinate is the product rule's own
    # case of an exact monomial factor: it shifts the other factor's terms
    # and cutoff by its floor, scales its coefficients and drops nothing.
    # So it goes into the term's int exponent, numerator and denominator
    # through the monomial-point character; every other power is folded
    # through _product from 1, with its coefficient denominator.  Each term
    # is then one pair (term bucket, fold), and one _products call shifts
    # and scales every fold by its term and sums them.  The cutoff is the
    # min over the terms' cutoffs, so dropping at or above it once keeps
    # exactly what dropping after every addition would
    monomials: dict[tuple[int, int], tuple[int, int, int]] = {}
    folded: dict[tuple[int, int], tuple] = {}
    for key, x in powers.items():
        if x is None:
            monomials[key] = _monomial_power(exact[key[0]], key[1], d)
        else:
            xd, exps, den, nums = x.columns()
            folded[key] = (dict(zip([e * (d // xd) for e in exps], nums)),
                           _int_cut(x.cutoff, d), den)
    pairs = []
    cut = None
    unit = {0: 1}
    for coords, coeff, w in rows:
        e = sum(map(operator.mul, coords, energies))
        num, den = coeff.numerator, coeff.denominator
        fold, fold_cut, fold_den = unit, None, 1
        for key in enumerate(w):
            if key[1]:
                if key in monomials:
                    pe, pn, pd = monomials[key]
                    e += pe
                    num *= pn
                    den *= pd
                else:
                    fterms, fcut, fden = folded[key]
                    fold, fold_cut = _product(fold, fold_cut, fterms, fcut)
                    fold_den *= fden
        pairs.append(((den, {e: num}), (fold_den, fold)))
        if fold_cut is not None:
            cut = _min_cut(cut, fold_cut + e)
    return _merged(d, [_products(pairs)], None if cut is None else Fraction(cut, d))
