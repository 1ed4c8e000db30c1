"""Chamber superpotentials, wall-crossing gluing, invariant tables.

The Clifford-chamber superpotential of a compactification collects one
Maslov-2 disk monomial per toric ray.  Crossing the wall into the Chekanov
chamber multiplies each monomial by a power of the gluing factor

    f = 1 + (gamma_1-monomial) + ... + (gamma_{n-1}-monomial),

the power being minus the beta_hat-coefficient of the class (plus for the
reverse direction).  The Chekanov superpotential has an exact closed form
whenever every extra ray has nonnegative coordinate sum: like the gluing
map it is a sum p f^e, one call of series' engine for those, here
series.times_powers over the parts beta_hat f^0 and beta'_a f^{p_a}
(_chekanov_parts), one packed operand when it returns.  Its coefficients
are one-pointed open Gromov-Witten invariants; invariant_table reads them
off the series' digit columns (ClassSeries.columns) without a RelClass or
an InvariantRow per row: the series shape is checked once per table, the
Maslov index is the column sum 2b + sum_a 2(1 + p_a) h_a, integrality is
den | numerator, and the names come from one piece map per coordinate
column (fan._class_names).  An InvariantTable is those columns and
nothing else; its rows are built from them when read (fan._classes, the
one way back from digit columns to classes), and value_of matches a class
against them.  evaluate_chekanov evaluates it at a torus
point from the same parts; at a monomial point it does so in the factored
form beta_hat + sum_a beta'_a f^{p_a}, never expanding f^{p_a}, with the
expanded novikov.evaluate as its oracle, and a point that evaluate would
refuse is refused before the expansion.  closed_form_invariant supplies
independent multinomial formulas for the stock families, and
verify_wall_cross_identity checks the exp/log consistency identity that
pins the basic disk count to 1.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from enum import Enum
from fractions import Fraction

from .errors import (
    BadParams,
    DimensionMismatch,
    MaslovViolation,
    NegativePa,
    NonIntegerInvariant,
    UnknownFamily,
)
from .fan import (
    FanSpec,
    RelClass,
    _check_shape,
    _class_names,
    _classes,
    _maslov_weights,
    _require,
    _require_int_param,
    _Value,
    beta_class,
    beta_hat_class,
    beta_prime_class,
    gamma_class,
    ray_decomposition,
    require_ints,
)
from .series import (
    DEFAULT_TRUNC,
    ClassSeries,
    _glued,
    _one_plus_gammas,
    _products,
    _times_exp_neg_log,
    _times_powers,
    _require_series,
    _trunc_bound,
    monomial,
    multiply,
    one,
    series_log,
    times_powers,
)


class Chart(Enum):
    """Which chamber the fiber torus sits over."""

    CLIFFORD = "clifford"
    CHEKANOV = "chekanov"


class Ambient(Enum):
    """Disks in C^n only, or in the full compactification."""

    OPEN = "open"
    COMPACT = "compact"


class Direction(Enum):
    PLUS_TO_MINUS = "plus_to_minus"
    MINUS_TO_PLUS = "minus_to_plus"


class Superpotential(_Value):
    """Finite sum of Maslov-2 disk monomials attached to one chamber.

    fan is a FanSpec, series a ClassSeries, chamber a Chart and ambient an
    Ambient; each is checked when the superpotential is built, a bad one
    raising BadParams.
    """

    __slots__ = ("fan", "series", "chamber", "ambient")

    def __init__(self, fan: FanSpec, series: ClassSeries, chamber: Chart, ambient: Ambient):
        _require(fan, FanSpec, "superpotential fan")
        _require_series(series)
        _require(chamber, Chart, "superpotential chamber")
        _require(ambient, Ambient, "superpotential ambient")
        object.__setattr__(self, "fan", fan)
        object.__setattr__(self, "series", series)
        object.__setattr__(self, "chamber", chamber)
        object.__setattr__(self, "ambient", ambient)


class GluingData(_Value):
    """Wall-crossing factor plus how to apply it.

    factor is a ClassSeries (wall_crossing_factor's has constant term 1
    and one further term per gamma_k), direction a Direction, and trunc,
    an int >= 0, bounds the gamma-degree of glued output; each is checked
    when the data is built, a bad one raising BadParams.
    """

    __slots__ = ("factor", "direction", "trunc")

    def __init__(self, factor: ClassSeries, direction: Direction, trunc: int):
        _require_series(factor)
        _require(direction, Direction, "gluing direction")
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "trunc", _trunc_bound(trunc))


class InvariantRow(_Value):
    __slots__ = ("cls", "maslov", "value", "name")

    def __init__(self, cls: RelClass, maslov: int, value: Fraction, name: str):
        object.__setattr__(self, "cls", cls)
        object.__setattr__(self, "maslov", maslov)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "name", name)


class InvariantTable:
    """Canonically ordered rows of one-pointed disk counts, held only as
    their columns (names, h, b, g, maslov, n_beta), with h and g one int
    column per coordinate h_a and gamma_k.

    invariant_table builds a table from a series' columns.
    InvariantTable(rows) turns its rows into columns once, refusing a value
    that is not an integer as invariant_table does, and rows whose classes
    differ in shape.  rows and iteration build the InvariantRows from the
    columns on each call (fan._classes); value_of matches a class against
    the digit columns and builds none.
    """

    __slots__ = ("_columns",)

    def __init__(self, rows: Iterable[InvariantRow] = ()):
        rows = tuple(rows)
        for row in rows:
            if row.value.denominator != 1:
                raise NonIntegerInvariant(f"count for {row.name} is {row.value}, not an integer")
        classes = [row.cls for row in rows]
        # one column per coordinate needs one shape: zip would cut the longer
        shapes = {(len(c.g), len(c.h)) for c in classes}
        if len(shapes) > 1:
            raise DimensionMismatch(f"invariant rows mix class shapes {sorted(shapes)}")
        self._columns = (
            [row.name for row in rows],
            [list(col) for col in zip(*(c.h for c in classes))],
            [c.b for c in classes],
            [list(col) for col in zip(*(c.g for c in classes))],
            [row.maslov for row in rows],
            [row.value.numerator for row in rows],
        )

    @classmethod
    def _of(cls, columns: tuple) -> "InvariantTable":
        table = cls.__new__(cls)
        table._columns = columns
        return table

    @property
    def rows(self) -> tuple[InvariantRow, ...]:
        names, h, b, g, maslov, n_beta = self._columns
        classes = _classes(len(h), [*h, b, *g])
        return tuple(map(InvariantRow, classes, maslov, map(Fraction, n_beta), names))

    def columns(self) -> tuple:
        return self._columns

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self._columns[0])

    def __eq__(self, other):
        return isinstance(other, InvariantTable) and self._frozen() == other._frozen()

    def __hash__(self):
        return hash(self._frozen())

    def _frozen(self) -> tuple:
        # the columns as nested tuples, for == and hash: the rows are read
        # off them one to one, so equal columns are equal rows.  A table
        # with no rows keeps no shape, as its empty rows do not
        names, h, b, g, maslov, n_beta = self._columns
        if not b:
            return ()
        return (tuple(names), tuple(map(tuple, h)), tuple(b), tuple(map(tuple, g)),
                tuple(maslov), tuple(n_beta))

    def value_of(self, cls: RelClass) -> Fraction:
        # the first row whose digits are the class's, narrowed column by
        # column; 0 for a class of another shape or anything not a class
        _, h, b, g, _, n_beta = self._columns
        if not isinstance(cls, RelClass) or (len(cls.h), len(cls.g)) != (len(h), len(g)):
            return Fraction(0)
        found = range(len(b))
        for col, x in zip([*h, b, *g], [*cls.h, cls.b, *cls.g]):
            found = [i for i in found if col[i] == x]
        return Fraction(n_beta[found[0]]) if found else Fraction(0)


def _check_ambient(spec: FanSpec, ambient: Ambient):
    _require(ambient, Ambient, "ambient")
    if ambient is Ambient.COMPACT and spec.m == 0:
        raise BadParams("compact ambient needs at least one ray at infinity")


def clifford_superpotential(spec: FanSpec, ambient: Ambient) -> Superpotential:
    """One monomial per basic disk beta_1..beta_n; compact ambients add one
    monomial per extra ray's disk at infinity.  All coefficients are 1."""
    _check_ambient(spec, ambient)
    terms: dict[RelClass, Fraction] = {}
    for i in range(1, spec.n + 1):
        terms[beta_class(spec, i)] = Fraction(1)
    if ambient is Ambient.COMPACT:
        for a in range(1, spec.m + 1):
            terms[beta_prime_class(spec, a)] = Fraction(1)
    return Superpotential(
        spec, ClassSeries(spec.n, spec.m, terms), Chart.CLIFFORD, ambient
    )


def wall_crossing_factor(
    spec: FanSpec,
    direction: Direction = Direction.PLUS_TO_MINUS,
    trunc: int = DEFAULT_TRUNC,
) -> GluingData:
    """The gluing factor 1 + sum_k gamma_k-monomials for this fan, built
    straight onto packed keys (series._one_plus_gammas)."""
    return GluingData(_one_plus_gammas(spec.n, spec.m), direction, trunc)


def _chekanov_parts(spec: FanSpec) -> list[tuple[RelClass, int]]:
    """The (class, power of f) parts of the compact Chekanov superpotential
    beta_hat * f**0 + sum_a beta'_a * f**p_a.

    Compact needs an extra ray, and every p_a >= 0: otherwise f**p_a is an
    infinite series and we refuse rather than emit a silently truncated
    table.
    """
    _check_ambient(spec, Ambient.COMPACT)
    parts = [(beta_hat_class(spec), 0)]
    for a in range(1, spec.m + 1):
        _, p = ray_decomposition(spec, a)
        if p < 0:
            raise NegativePa(a, p)
        parts.append((beta_prime_class(spec, a), p))
    return parts


def chekanov_superpotential(spec: FanSpec, ambient: Ambient) -> Superpotential:
    """Exact pushforward of the Clifford superpotential across the wall.

    Open ambient: the single beta_hat monomial.  Compact: the sum over
    _chekanov_parts of (class monomial) * factor**p, expanded exactly in one
    packed pass (series.times_powers).
    """
    _check_ambient(spec, ambient)
    if ambient is Ambient.COMPACT:
        f = wall_crossing_factor(spec).factor
        parts = [(monomial(spec.n, spec.m, c), p) for c, p in _chekanov_parts(spec)]
        w = times_powers(parts, f)
    else:
        w = monomial(spec.n, spec.m, beta_hat_class(spec))
    return Superpotential(spec, w, Chart.CHEKANOV, ambient)


def evaluate_chekanov(ea: EnergyAssignment, point: Sequence[NovikovScalar]) -> NovikovScalar:
    """The compact Chekanov superpotential of ea.fan evaluated at a point,
    equal to evaluate(chekanov_superpotential(ea.fan, COMPACT).series, ea,
    point), which is its oracle.

    At a monomial point (n coordinates, each one exact term c*T^e),
    evaluation is a character on classes (novikov.monomial_character), so
    with every p_a >= 0 and sphere energies present

        ev(W) = ev(beta_hat) + sum_a ev(beta'_a) * ev(f)**p_a,
        ev(f) = 1 + sum_k ev(gamma_k),

    exactly, and the expanded series is never built.  ev(f) is held as int
    T-exponents (over one common denominator) with int numerators; they
    add like packed class keys, so the sum is series._times_powers, the
    Miller solve that times_powers uses too, with every ev(gamma_k) of
    grade 1.  The result is built straight from the solve's ints by
    novikov._merged, with no Fraction per term.

    Any other input takes the expanded path, so it raises the same errors
    in the same order: ev(gamma_k) needs x_k**-1 even where no expanded
    term does, and a coordinate with several terms or a cutoff would carry
    its cutoff through ev(f)**p_a differently from the expanded terms.
    The parts come first, so no ray at infinity and a negative p_a raise
    as the expansion does; past them the expansion cannot fail, so
    evaluate's point checks run before it is built.
    """
    # nothing else in wallcross uses novikov, so importing opengw need not
    from .novikov import EnergyAssignment, _check_point, _merged, evaluate, monomial_character

    _require(ea, EnergyAssignment, "energy assignment")
    spec = ea.fan
    parts = _chekanov_parts(spec)
    character = None if ea.h is None else monomial_character(ea, point)
    if character is None:
        _check_point(spec, point)
        return evaluate(chekanov_superpotential(spec, Ambient.COMPACT).series, ea, point)
    d, ev = character

    def bucket(cls):
        # ev(cls) as a one-term (den, nums) bucket on its T-exponent
        e, num, den = ev(cls)
        return den, {e: num}

    # ev(f) = 1 + u, u = sum_k ev(gamma_k) * 1 of grade 1 in a formal
    # grading; W = beta_hat * f**0 + sum_a beta'_a * f**p_a
    one_term = (1, {0: 1})
    u = _products([(bucket(gamma_class(spec, k)), one_term) for k in range(1, spec.n)])
    return _merged(d, [_times_powers([(bucket(c), p) for c, p in parts], {1: u})], None)


def apply_gluing(spec: FanSpec, s: ClassSeries, gd: GluingData) -> ClassSeries:
    """Glue a series across the wall, exactly up to gamma-degree gd.trunc.

    Each monomial of class c is multiplied by factor^e, e = -c.b for
    PlusToMinus and +c.b for MinusToPlus; gamma- and H-only monomials are
    fixed.  The whole series is one packed pass (series._glued), with no
    class built per term: e is read off the source keys' b digits and
    every e-group is one part of series' engine for sums p f^e, which
    prepares the factor once.  The e > 0 groups are multiplied by their
    exact powers; each e < 0 group is divided by the factor |e| times,
    graded by the linear form L of the factor's gamma orthant, which adds
    under products and never exceeds gamma-degree, so solving grade by
    grade up to gd.trunc gives every output coefficient of gamma-degree at
    most gd.trunc exactly, and an exact quotient stops as soon as it is
    found.  When some e < 0 the result is truncated at gd.trunc; a series
    needing no negative power is returned untruncated.
    """
    _require(spec, FanSpec, "gluing fan")
    _require_series(s)
    _require(gd, GluingData, "gluing data")
    if s.n != spec.n or s.m != spec.m:
        raise DimensionMismatch(
            f"series shape ({s.n},{s.m}) does not match fan ({spec.n},{spec.m})"
        )
    f = gd.factor
    if f.n != spec.n or f.m != spec.m:
        raise DimensionMismatch("gluing factor does not match the fan")
    return _glued(s, f, -1 if gd.direction is Direction.PLUS_TO_MINUS else 1, gd.trunc)


def glue_superpotential(w: Superpotential, gd: GluingData) -> Superpotential:
    """apply_gluing lifted to superpotentials, flipping the chamber tag."""
    _require(w, Superpotential, "glued superpotential")
    _require(gd, GluingData, "gluing data")
    side = {
        Direction.PLUS_TO_MINUS: (Chart.CLIFFORD, Chart.CHEKANOV),
        Direction.MINUS_TO_PLUS: (Chart.CHEKANOV, Chart.CLIFFORD),
    }[gd.direction]
    if w.chamber is not side[0]:
        raise BadParams(
            f"direction {gd.direction.value} expects a {side[0].value} superpotential"
        )
    glued = apply_gluing(w.fan, w.series, gd)
    return Superpotential(w.fan, glued, side[1], w.ambient)


def invariant_table(w: Superpotential) -> InvariantTable:
    """Read the disk counts off a superpotential, one row per class.

    Every class must have Maslov index 2 and an integer coefficient;
    violations abort, they are never rounded away, and the first faulty
    row in canonical order is reported, its Maslov index first.  The
    table is read from the series' digit columns (ClassSeries.columns):
    the shape is checked once, the Maslov index is the column sum
    2b + sum_a 2(1 + p_a) h_a, a count is an integer when den divides its
    numerator, and the names are one join per row of per-column pieces.
    """
    _require(w, Superpotential, "invariant table source")
    spec, s = w.fan, w.series
    if s and (s.n, s.m) != (spec.n, spec.m):
        _check_shape(spec, s.n - 1, s.m)
    cols, den, nums = s.columns()
    m = s.m
    maslov = [2 * b for b in cols[m]]
    for weight, h in zip(_maslov_weights(spec), cols[:m]):
        maslov = [mu + weight * x for mu, x in zip(maslov, h)]
    # the first row failing each check, len(nums) when none does
    size = len(nums)
    bad_mu = size if maslov.count(2) == size else next(i for i, x in enumerate(maslov) if x != 2)
    bad_int = size if den == 1 else next((i for i, v in enumerate(nums) if v % den), size)
    first = min(bad_mu, bad_int)
    if first < size:
        name = _class_names(m, s.n - 1, [[col[first]] for col in cols])[0]
        if first == bad_mu:
            raise MaslovViolation(f"class {name} has Maslov index {maslov[first]}, expected 2")
        raise NonIntegerInvariant(
            f"count for {name} is {Fraction(nums[first], den)}, not an integer"
        )
    return InvariantTable._of((
        _class_names(m, s.n - 1, cols),
        cols[:m],
        cols[m],
        cols[m + 1:],
        maslov,
        nums if den == 1 else [v // den for v in nums],
    ))


def _no_extra(params: dict):
    if params:
        raise BadParams(f"unexpected parameters {sorted(params)}")


def _multinomial(p: int, js: Sequence[int]) -> Fraction:
    """Coefficient of prod_i gamma_i^{j_i} in (1 + sum_i gamma_i)^p; 0 off
    the simplex j_i >= 0, sum_i j_i <= p."""
    rest = p - sum(js)
    if rest < 0 or any(j < 0 for j in js):
        return Fraction(0)
    denom = math.factorial(rest) * math.prod(math.factorial(j) for j in js)
    return Fraction(math.factorial(p), denom)


def closed_form_invariant(family: str, params: Mapping) -> Fraction:
    """Independent multinomial formulas for the stock families.

    Families: "cpn" (params n, and k of length n-1 or beta_hat), "cp_product"
    (params n, r, branch "H1"/"H2", k of length n-1 or beta_hat), "f1"
    (params branch "H1"/"H2", integer k, or beta_hat).  A class outside the
    admissible range has invariant 0.  Each disk at infinity is dressed by
    (1 + sum gamma)^p, so its count is a multinomial coefficient in k
    shifted by the gammas its ray contributes.
    """
    params = dict(params)
    if family == "cpn":
        n = _require_int_param(params, "n")
        if n < 1:
            raise BadParams(f"need n >= 1, got {n}")
        if params.pop("beta_hat", False):
            _no_extra(params)
            return Fraction(1)
        k = require_ints(params.pop("k", None), "parameter 'k'", n - 1)
        _no_extra(params)
        return _multinomial(n, [ki + 1 for ki in k])
    if family == "cp_product":
        n = _require_int_param(params, "n")
        r = _require_int_param(params, "r")
        if not 1 <= r < n:
            raise BadParams(f"need 1 <= r < n, got r={r}, n={n}")
        if params.pop("beta_hat", False):
            _no_extra(params)
            return Fraction(1)
        branch = params.pop("branch", None)
        k = require_ints(params.pop("k", None), "parameter 'k'", n - 1)
        _no_extra(params)
        if branch == "H1":
            # first factor's disk at infinity dressed by factor^r
            return _multinomial(r, [ki + (i < r) for i, ki in enumerate(k)])
        if branch == "H2":
            return _multinomial(n - r, [ki + (i >= r) for i, ki in enumerate(k)])
        raise BadParams(f"branch must be 'H1' or 'H2', got {branch!r}")
    if family == "f1":
        if params.pop("beta_hat", False):
            _no_extra(params)
            return Fraction(1)
        branch = params.pop("branch", None)
        kk = _require_int_param(params, "k")
        _no_extra(params)
        if branch == "H1":
            return _multinomial(2, [kk + 1])
        if branch == "H2":
            return _multinomial(1, [kk])
        raise BadParams(f"branch must be 'H1' or 'H2', got {branch!r}")
    raise UnknownFamily(f"no closed form for family {family!r}")


def solve_exp_G(spec: FanSpec, trunc: int = DEFAULT_TRUNC) -> ClassSeries:
    """Log of the wall-crossing factor: the exponent series whose exp
    reproduces the factor.  Constant term 0, every term gamma-degree >= 1."""
    f = wall_crossing_factor(spec).factor
    return series_log(f, trunc)


def wall_cross_rhs(
    spec: FanSpec,
    trunc: int = DEFAULT_TRUNC,
    n_factors: Sequence[ClassSeries] | None = None,
) -> ClassSeries:
    """Right-hand side of the consistency identity for the basic disk count.

    With the k-th slot's sphere correction N_k (default 1, exact for C^n,
    which has no effective curve classes) the identity reads

        n_beta_hat = exp(-log f) * (N_n + sum_{k<n} gamma_k-monomial * N_k)

    and the left side is 1; callers compare against the constant series.
    log f, exp(-log f) and the product with the bracket are one packed
    pass, series._times_exp_neg_log.
    """
    if n_factors is None:
        n_factors = [one(spec.n, spec.m)] * spec.n
    if len(n_factors) != spec.n:
        raise BadParams(f"need {spec.n} sphere-correction series")
    f = wall_crossing_factor(spec).factor
    # a bad bound is reported before a bad correction shape
    trunc = _trunc_bound(trunc)
    # one product of the bracket with exp(-log f), equal by distributivity
    # to one product per slot
    bracket = n_factors[spec.n - 1]
    for k in range(1, spec.n):
        slot = monomial(spec.n, spec.m, gamma_class(spec, k))
        bracket = bracket + multiply(slot, n_factors[k - 1])
    return _times_exp_neg_log(bracket, f, trunc)


def verify_wall_cross_identity(
    spec: FanSpec,
    trunc: int = DEFAULT_TRUNC,
    n_factors: Sequence[ClassSeries] | None = None,
) -> bool:
    """True iff the consistency identity holds term-exactly up to trunc."""
    return wall_cross_rhs(spec, trunc, n_factors) == one(spec.n, spec.m)
