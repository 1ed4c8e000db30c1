"""Fan data for smooth toric compactifications of C^n.

A compactification is described by the fan of C^n itself (the base rays
-e_1, ..., -e_n) together with m extra primitive rays v_1, ..., v_m and an
optional list of maximal cones.  Ray indices 0..n-1 always mean the base
rays; index n+a-1 means the extra ray v_a.

Relative disk classes live in the free abelian group spanned by the basic
disk beta_hat, the loop differences gamma_1..gamma_{n-1}, and the sphere
classes H_1..H_m of the toric divisors added at infinity.  The derived
classes are

    beta_i   = beta_hat + gamma_i          (i < n),   beta_n = beta_hat
    beta'_a  = H_a - p_a beta_hat - sum_k v_{ak} gamma_k

with p_a the coordinate sum of v_a.  Boundaries are taken in the fixed
frame d(beta_hat) = -e_n, d(gamma_k) = e_n - e_k, which makes
d(beta_i) = -e_i and d(beta'_a) = v_a.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Mapping, Sequence
from fractions import Fraction

from .errors import (
    BadParams,
    DimensionMismatch,
    IndexOutOfRange,
    MalformedCone,
    MissingCones,
    UnknownName,
)

IntVec = tuple[int, ...]


# The input boundary: every integer and rational from a caller or a document
# goes through these; the library raises BadParams, the CLI its own errors.

def require_int(v, what: str, error: type[Exception] = BadParams) -> int:
    """v itself when it is a genuine integer; bool, float, str and every
    other type raise error, never a silent rounding."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise error(f"{what} must be an integer, got {v!r}")
    return v


def require_ints(
    v, what: str, length: int | None = None, error: type[Exception] = BadParams
) -> IntVec:
    """v as a tuple of genuine integers: v must be a non-string sequence,
    of the given length when one is given."""
    _require_seq(v, what, error)
    if length is not None and len(v) != length:
        raise error(f"{what} must have length {length}, got {v!r}")
    entry = f"{what} entry"
    return tuple(require_int(x, entry, error) for x in v)


def require_rational(v, what: str, error: type[Exception] = BadParams) -> Fraction:
    """v as an exact Fraction: an int (not bool), a Fraction, or a string
    that Fraction parses exactly, like "1/2" or "0.1".  A float, bool, None
    or anything else raises error.  A Fraction comes back as it is, since
    it is immutable; an int or a Fraction subclass as a new Fraction."""
    if type(v) is Fraction:
        return v
    if isinstance(v, (int, Fraction)) and not isinstance(v, bool):
        return Fraction(v)
    if not isinstance(v, str):
        raise error(f"{what} must be an integer, a Fraction or a 'p/q' string, got {v!r}")
    try:
        return Fraction(v)
    except (ValueError, ZeroDivisionError) as exc:
        raise error(f"{what}: bad rational {v!r}: {exc}") from exc


def _fractions(den: int, nums: Sequence[int]) -> tuple[Sequence[int], list[int]]:
    # numerators and denominators of nums[i] / den, den > 0, in lowest terms
    if den == 1:
        return nums, [1] * len(nums)
    gs = [math.gcd(v, den) for v in nums]
    return [v // g for v, g in zip(nums, gs)], [den // g for g in gs]


def _fraction_texts(den: int, nums: Sequence[int]) -> list[str]:
    # str(Fraction(v, den)) for each v in nums, with no Fraction built
    return [str(p) if q == 1 else f"{p}/{q}" for p, q in zip(*_fractions(den, nums))]


def _require_seq(v, what: str, error: type[Exception] = BadParams) -> Sequence:
    """v itself when it is a list, tuple or other non-string sequence."""
    if isinstance(v, str) or not isinstance(v, Sequence):
        raise error(f"{what} must be a sequence, got {v!r}")
    return v


def _require(value, kind: type, what: str):
    # a BadParams for an argument that is not a kind, never a raw error later
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise BadParams(f"{what} must be {article} {kind.__name__}, got {value!r}")


def _require_rationals(v, what: str, error: type[Exception] = BadParams) -> tuple[Fraction, ...]:
    """v, a non-string sequence, as a tuple of require_rational values."""
    entry = f"{what} entry"
    return tuple(require_rational(x, entry, error) for x in _require_seq(v, what, error))


def _require_keys(
    doc, allowed: set, required: set, what: str, error: type[Exception] = BadParams
) -> Mapping:
    """doc itself when it is a mapping with only allowed and all required keys."""
    if not isinstance(doc, Mapping):
        raise error(f"{what} must be a JSON object")
    unknown = set(doc) - allowed
    if unknown:
        raise error(f"{what}: unknown keys {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise error(f"{what}: missing keys {sorted(missing)}")
    return doc


class _Value:
    """Base of the value types: the fields are a subclass's __slots__, in
    constructor order.  A subclass's __init__ checks and normalizes its
    arguments and ends in one _Value.__init__ call with the field values.

    == and hash compare the field values, and an instance equals only an
    instance of the same class; repr prints Name(field=value, ...); copy
    and pickle rebuild an instance through its constructor.  Assigning or
    deleting any attribute raises AttributeError; _Value.__init__ alone
    stores fields past that.  RelClass is built per term whenever a series
    is read, so it sets its fields through the slots' own setters and
    spells out its own == and hash, which a field tuple built inline makes
    about twice as fast as the shared ones.  wallcross.InvariantRow, built
    per row whenever a table's rows are read, sets its fields through the
    slots' own setters too, and keeps the shared == and hash.
    NovikovLaurent keeps the reassignable fields it has always had, so it
    is unhashable and its __init__ sets them by plain assignment.
    """

    __slots__ = ()

    def __init__(self, *values):
        for field, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, field, value)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the field values as one tuple
        cls._values = property(operator.attrgetter(*cls.__slots__))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values


class RelClass(_Value):
    """A relative homotopy class b*beta_hat + sum g_k gamma_k + sum h_a H_a."""

    __slots__ = ("b", "g", "h")

    def __init__(self, b: int, g: IntVec, h: IntVec):
        # the slots' own setters, bound below, skip the frozen __setattr__
        _set_b(self, b)
        _set_g(self, g)
        _set_h(self, h)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.b, self.g, self.h) == (other.b, other.g, other.h)
        return NotImplemented

    def __hash__(self):
        return hash((self.b, self.g, self.h))

    def __add__(self, other: "RelClass") -> "RelClass":
        if len(self.g) != len(other.g) or len(self.h) != len(other.h):
            raise DimensionMismatch("cannot add classes of different shapes")
        return RelClass(
            self.b + other.b,
            tuple(x + y for x, y in zip(self.g, other.g)),
            tuple(x + y for x, y in zip(self.h, other.h)),
        )

    def __neg__(self) -> "RelClass":
        return RelClass(-self.b, tuple(-x for x in self.g), tuple(-x for x in self.h))

    def __sub__(self, other: "RelClass") -> "RelClass":
        return self + (-other)

    def scale(self, k: int) -> "RelClass":
        return RelClass(k * self.b, tuple(k * x for x in self.g), tuple(k * x for x in self.h))

    @property
    def gamma_degree(self) -> int:
        """Total absolute gamma coefficient; grades all truncations."""
        return sum(abs(x) for x in self.g)

    @property
    def sort_key(self):
        # canonical order: lexicographic on (h, b, g)
        return (self.h, self.b, self.g)

    def is_zero(self) -> bool:
        return self.b == 0 and not any(self.g) and not any(self.h)


_set_b, _set_g, _set_h = (RelClass.__dict__[f].__set__ for f in RelClass.__slots__)


class EnergyValues(_Value):
    """Raw symplectic areas for the generator classes, all exact rationals.

    h may be None when only the open-ambient generators are being used.
    """

    __slots__ = ("beta_hat", "gamma", "h")

    def __init__(self, beta_hat: Fraction, gamma: tuple[Fraction, ...],
                 h: tuple[Fraction, ...] | None = None):
        _Value.__init__(self, beta_hat, gamma, h)


def parse_energies(doc, error: type[Exception] = BadParams) -> EnergyValues:
    """The energies document {"beta_hat", "gamma", "H"} as exact EnergyValues.

    beta_hat is required; gamma (default empty) and H (absent or null: no
    sphere energies) must be arrays.  Every value goes through
    require_rational; unknown keys raise error.
    """
    _require_keys(doc, {"beta_hat", "gamma", "H"}, {"beta_hat"}, "energies", error)
    h = doc.get("H")
    return EnergyValues(
        require_rational(doc["beta_hat"], "energies: beta_hat", error),
        _require_rationals(doc.get("gamma", ()), "energies: gamma", error),
        None if h is None else _require_rationals(h, "energies: H", error),
    )


class FanSpec(_Value):
    """Fan of a toric compactification of C^n.

    extra_rays are the rays added to the C^n fan.  max_cones, when present,
    lists each maximal cone as indices into base-then-extra rays.  energies
    optionally pins areas for beta_hat, the gammas, and the H_a.
    """

    __slots__ = ("n", "extra_rays", "max_cones", "energies")

    def __init__(self, n: int, extra_rays: tuple[IntVec, ...],
                 max_cones: tuple[IntVec, ...] | None = None,
                 energies: EnergyValues | None = None):
        if require_int(n, "dimension") < 1:
            raise BadParams(f"dimension must be >= 1, got {n}")
        rays = tuple(require_ints(r, "extra ray") for r in _require_seq(extra_rays, "extra rays"))
        for r in rays:
            if len(r) != n:
                raise DimensionMismatch(f"extra ray {r} does not have length {n}")
        if max_cones is not None:
            max_cones = tuple(
                require_ints(c, "cone") for c in _require_seq(max_cones, "max cones")
            )
            top = n + len(rays)
            for c in max_cones:
                for i in c:
                    if not 0 <= i < top:
                        raise IndexOutOfRange(f"cone {c}: ray index {i} not in 0..{top - 1}")
        _Value.__init__(self, n, rays, max_cones, energies)

    @property
    def m(self) -> int:
        return len(self.extra_rays)

    def ray(self, i: int) -> IntVec:
        """Ray by global index: 0..n-1 are -e_1..-e_n, then the extras."""
        if not 0 <= i < self.n + self.m:
            raise IndexOutOfRange(f"ray index {i} not in 0..{self.n + self.m - 1}")
        if i < self.n:
            return tuple(-1 if j == i else 0 for j in range(self.n))
        return self.extra_rays[i - self.n]

    @property
    def rays(self) -> tuple[IntVec, ...]:
        return tuple(self.ray(i) for i in range(self.n + self.m))


class ValidationReport(_Value):
    __slots__ = ("primitive_ok", "smooth_ok", "complete_ok", "fano_ok", "diagnostics")

    def __init__(self, primitive_ok: bool, smooth_ok: bool, complete_ok: bool, fano_ok: bool,
                 diagnostics: tuple[str, ...] = ()):
        _Value.__init__(self, primitive_ok, smooth_ok, complete_ok, fano_ok, diagnostics)

    @property
    def all_ok(self) -> bool:
        return self.primitive_ok and self.smooth_ok and self.complete_ok and self.fano_ok


# class constructors

def zero_class(spec: FanSpec) -> RelClass:
    _require(spec, FanSpec, "fan spec")
    return RelClass(0, (0,) * (spec.n - 1), (0,) * spec.m)


def beta_hat_class(spec: FanSpec) -> RelClass:
    _require(spec, FanSpec, "fan spec")
    return RelClass(1, (0,) * (spec.n - 1), (0,) * spec.m)


def gamma_class(spec: FanSpec, k: int) -> RelClass:
    """gamma_k for 1 <= k <= n-1."""
    _require(spec, FanSpec, "fan spec")
    if not 1 <= require_int(k, "gamma index") <= spec.n - 1:
        raise IndexOutOfRange(f"gamma index {k} not in 1..{spec.n - 1}")
    return RelClass(0, tuple(1 if j == k - 1 else 0 for j in range(spec.n - 1)), (0,) * spec.m)


def sphere_class(spec: FanSpec, a: int) -> RelClass:
    """H_a for 1 <= a <= m."""
    _require(spec, FanSpec, "fan spec")
    if not 1 <= require_int(a, "sphere index") <= spec.m:
        raise IndexOutOfRange(f"sphere index {a} not in 1..{spec.m}")
    return RelClass(0, (0,) * (spec.n - 1), tuple(1 if j == a - 1 else 0 for j in range(spec.m)))


def beta_class(spec: FanSpec, i: int) -> RelClass:
    """Basic disk beta_i = beta_hat + gamma_i (and beta_n = beta_hat)."""
    _require(spec, FanSpec, "fan spec")
    if not 1 <= require_int(i, "disk index") <= spec.n:
        raise IndexOutOfRange(f"disk index {i} not in 1..{spec.n}")
    c = beta_hat_class(spec)
    if i < spec.n:
        c = c + gamma_class(spec, i)
    return c


def beta_prime_class(spec: FanSpec, a: int) -> RelClass:
    """Disk class at infinity: H_a - p_a beta_hat - sum_k v_{ak} gamma_k."""
    v, p = ray_decomposition(spec, a)
    return RelClass(
        -p,
        tuple(-v[k] for k in range(spec.n - 1)),
        tuple(1 if j == a - 1 else 0 for j in range(spec.m)),
    )


def ray_decomposition(spec: FanSpec, a: int) -> tuple[IntVec, int]:
    """Extra ray v_a (1-based) with its coordinate sum p_a."""
    _require(spec, FanSpec, "fan spec")
    if not 1 <= require_int(a, "extra ray index") <= spec.m:
        raise IndexOutOfRange(f"extra ray index {a} not in 1..{spec.m}")
    v = spec.extra_rays[a - 1]
    return v, sum(v)


def class_boundary(spec: FanSpec, c: RelClass) -> IntVec:
    """Boundary loop of c in the fixed pi_1 frame, as an integer n-vector.

    Linear in c and zero on pure sphere classes.
    """
    _check_class_shape(spec, c)
    return _boundary(c)


def _boundary(c: RelClass) -> IntVec:
    # class_boundary without the shape check, for callers that check once
    out = [-gk for gk in c.g]
    out.append(-c.b + sum(c.g))
    return tuple(out)


def class_maslov(spec: FanSpec, c: RelClass) -> int:
    """Maslov index: 2b plus 2(1 + p_a) per sphere class H_a."""
    _check_class_shape(spec, c)
    return 2 * c.b + sum(map(operator.mul, _maslov_weights(spec), c.h))


def _maslov_weights(spec: FanSpec) -> IntVec:
    """The Maslov index's weights 2(1 + p_a) on h_a; b has weight 2."""
    return tuple(2 * (1 + sum(v)) for v in spec.extra_rays)


def _check_class_shape(spec: FanSpec, c: RelClass):
    _require(spec, FanSpec, "fan spec")
    _require(c, RelClass, "class")
    _check_shape(spec, len(c.g), len(c.h))


def _check_shape(spec: FanSpec, g: int, h: int):
    # the shape check of a class with g gamma and h sphere coordinates
    if g != spec.n - 1 or h != spec.m:
        raise DimensionMismatch(
            f"class shape ({g}, {h}) does not match fan ({spec.n - 1}, {spec.m})"
        )


@functools.cache
def _class_symbols(m: int, g: int) -> tuple[str, ...]:
    # coordinate symbols in name order: H_1..H_m, beta_hat, gamma_1..gamma_g
    return (*(f"H_{a}" for a in range(1, m + 1)), "β̂", *(f"γ_{k}" for k in range(1, g + 1)))


class _Pieces(dict):
    # value q -> the piece " + q sym" / " - |q| sym" of one coordinate, "" for
    # q = 0, each formatted on first use; a lead map formats "q sym" / "-|q| sym"
    __slots__ = ("sym", "plus", "minus")

    def __init__(self, sym: str, lead: bool = False):
        super().__init__()
        self.sym = sym
        self.plus, self.minus = ("", "-") if lead else (" + ", " - ")

    def __missing__(self, q: int) -> str:
        if q > 0:
            piece = f"{self.plus}{self.sym}" if q == 1 else f"{self.plus}{q}{self.sym}"
        elif q:
            piece = f"{self.minus}{self.sym}" if q == -1 else f"{self.minus}{-q}{self.sym}"
        else:
            piece = ""
        self[q] = piece
        return piece


def _class_names(m: int, g: int, columns: Sequence[Sequence[int]]) -> list[str]:
    """class_name of every row of digit columns in canonical order, one
    column per coordinate h_1 .. h_m, b, gamma_1 .. gamma_g.

    One _Pieces map per column formats each of its values once, the first
    column's as lead pieces ("H_1", "-2β̂"), and every row is one join of
    its pieces.  Only a row whose first coordinate is 0 (picked with
    compress) starts with a " + " or " - " piece, or is empty, and is
    fixed up after the join.
    """
    lead, *rest = columns
    symbols = _class_symbols(m, g)
    pieces = [map(_Pieces(symbols[0], True).__getitem__, lead)]
    pieces += [map(_Pieces(sym).__getitem__, col) for sym, col in zip(symbols[1:], rest)]
    names = list(map("".join, zip(*pieces)))
    # a row whose first coordinate is 0: its first piece's sign becomes a
    # bare leading minus or is dropped, and an empty row is 0
    for i in itertools.compress(range(len(names)), map(operator.not_, lead)):
        text = names[i]
        names[i] = (text[3:] if text[1] == "+" else "-" + text[3:]) if text else "0"
    return names


def _classes(m: int, columns: Sequence[Sequence[int]]) -> list[RelClass]:
    """The RelClass of every row of digit columns in canonical order, one
    column per coordinate h_1 .. h_m, b, gamma_1 .. gamma_g: the one way
    back from packed keys or table columns to classes."""
    b = columns[m]
    # a shape without h or gamma coordinates has one () per row
    hs = zip(*columns[:m]) if m else [()] * len(b)
    gs = zip(*columns[m + 1:]) if len(columns) > m + 1 else [()] * len(b)
    return list(map(RelClass, b, gs, hs))


def class_name(c: RelClass) -> str:
    """Readable name like 'H_1 - 2β̂ + γ_1'."""
    _require(c, RelClass, "class")
    return _class_names(len(c.h), len(c.g), [[x] for x in (*c.h, c.b, *c.g)])[0]


# exact integer linear algebra, small n

def det_int(mat) -> int:
    """Determinant of a square integer matrix by fraction-free elimination;
    a matrix that is not one raises BadParams."""
    k = len(_require_seq(mat, "matrix"))
    return _det([require_ints(row, "matrix row", k) for row in mat])


def _det(mat) -> int:
    # det_int of rows already known to be k int sequences of length k
    a = [list(row) for row in mat]
    k = len(a)
    if k == 0:
        return 1
    sign = 1
    prev = 1
    for i in range(k - 1):
        if a[i][i] == 0:
            for r in range(i + 1, k):
                if a[r][i] != 0:
                    a[i], a[r] = a[r], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, k):
            for c in range(i + 1, k):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
            a[r][i] = 0
        prev = a[i][i]
    return sign * a[-1][-1]


def _facet_normal(rows: list[IntVec], n: int) -> IntVec:
    # generalized cross product: signed maximal minors of the (n-1) x n matrix
    return tuple(
        (-1) ** i * _det([[row[c] for c in range(n) if c != i] for row in rows])
        for i in range(n)
    )


def validate_fan(spec: FanSpec) -> ValidationReport:
    """Check primitivity, unimodular smoothness, completeness, and the
    reflexive-support Fano criterion.

    Completeness is only evaluated on smooth fans (facet hyperplanes need
    independent generators) and the Fano criterion only on smooth complete
    ones; skipped checks report False with a diagnostic saying why.
    """
    _require(spec, FanSpec, "fan spec")
    if spec.max_cones is None:
        raise MissingCones("fan spec has no maximal cones")
    for c in spec.max_cones:
        if len(c) != spec.n or len(set(c)) != spec.n:
            raise MalformedCone(f"cone {c} must have exactly {spec.n} distinct ray indices")

    diagnostics: list[str] = []

    primitive_ok = True
    seen: dict[IntVec, int] = {spec.ray(i): i for i in range(spec.n)}
    for a, v in enumerate(spec.extra_rays, start=1):
        if not any(v):
            primitive_ok = False
            diagnostics.append(f"extra ray {a} is zero")
            continue
        if math.gcd(*(abs(x) for x in v)) != 1:
            primitive_ok = False
            diagnostics.append(f"extra ray {a} = {v} is not primitive")
        idx = spec.n + a - 1
        if v in seen:
            primitive_ok = False
            diagnostics.append(f"extra ray {a} = {v} duplicates ray {seen[v]}")
        else:
            seen[v] = idx

    smooth_ok = True
    for ci, cone in enumerate(spec.max_cones):
        d = _det([spec.ray(i) for i in cone])
        if abs(d) != 1:
            smooth_ok = False
            diagnostics.append(f"cone {ci} {cone}: ray determinant {d}")

    complete_ok = False
    if not smooth_ok:
        diagnostics.append("completeness not evaluated: fan is not smooth")
    elif not spec.max_cones:
        diagnostics.append("no maximal cones listed")
    else:
        complete_ok = True
        facets: dict[IntVec, list[tuple[int, int]]] = {}
        for ci, cone in enumerate(spec.max_cones):
            for omit in cone:
                facet = tuple(sorted(i for i in cone if i != omit))
                facets.setdefault(facet, []).append((ci, omit))
        adjacency: dict[int, set[int]] = {ci: set() for ci in range(len(spec.max_cones))}
        for facet, owners in sorted(facets.items()):
            if len(owners) != 2:
                complete_ok = False
                diagnostics.append(f"facet {facet} lies in {len(owners)} cone(s), want 2")
                continue
            (c1, r1), (c2, r2) = owners
            u = _facet_normal([spec.ray(i) for i in facet], spec.n)
            s1 = sum(x * y for x, y in zip(spec.ray(r1), u))
            s2 = sum(x * y for x, y in zip(spec.ray(r2), u))
            if s1 == 0 or s2 == 0 or (s1 > 0) == (s2 > 0):
                complete_ok = False
                diagnostics.append(
                    f"facet {facet}: cones {c1} and {c2} are not on strictly opposite sides"
                )
            else:
                adjacency[c1].add(c2)
                adjacency[c2].add(c1)
        if complete_ok:
            reached = {0}
            frontier = [0]
            while frontier:
                nxt = frontier.pop()
                for other in adjacency[nxt]:
                    if other not in reached:
                        reached.add(other)
                        frontier.append(other)
            if len(reached) != len(spec.max_cones):
                complete_ok = False
                diagnostics.append("cone adjacency graph is disconnected")

    fano_ok = False
    if not (smooth_ok and complete_ok):
        diagnostics.append("Fano criterion not evaluated: fan is not smooth and complete")
    else:
        fano_ok = True
        for ci, cone in enumerate(spec.max_cones):
            # the support point m with <ray_i, m> = 1 on the cone, by Cramer's
            # rule: the cone is unimodular, so 1/det = det and m is integral
            rows = [spec.ray(i) for i in cone]
            d = _det(rows)
            msig = [
                d * _det([row[:k] + (1,) + row[k + 1:] for row in rows])
                for k in range(spec.n)
            ]
            for j in range(spec.n + spec.m):
                if j in cone:
                    continue
                pairing = sum(x * y for x, y in zip(spec.ray(j), msig))
                if pairing >= 1:
                    fano_ok = False
                    diagnostics.append(
                        f"cone {ci} {cone}: ray {j} pairs to {pairing} (needs < 1)"
                    )

    return ValidationReport(primitive_ok, smooth_ok, complete_ok, fano_ok, tuple(diagnostics))


def builtin_fan(name: str, **params) -> FanSpec:
    """Named example fans.

    cpn(n)            projective n-space
    cp_product(n, r)  CP^r x CP^(n-r), 1 <= r < n
    hirzebruch_f1     the Fano Hirzebruch surface
    f2_nonfano        the non-Fano Hirzebruch surface, fails only the
                      Fano criterion
    """
    if name == "cpn":
        n = _require_int_param(params, "n")
        if n < 1 or params:
            raise BadParams(f"cpn needs a single parameter n >= 1, got n={n}, extra={params}")
        extra = (tuple(1 for _ in range(n)),)
        cones = tuple(tuple(c) for c in itertools.combinations(range(n + 1), n))
        return FanSpec(n=n, extra_rays=extra, max_cones=cones)
    if name == "cp_product":
        n = _require_int_param(params, "n")
        r = _require_int_param(params, "r")
        if params or not 1 <= r < n:
            raise BadParams(f"cp_product needs 1 <= r < n, got n={n}, r={r}, extra={params}")
        v1 = tuple(1 if i < r else 0 for i in range(n))
        v2 = tuple(0 if i < r else 1 for i in range(n))
        first = list(range(r)) + [n]
        second = list(range(r, n)) + [n + 1]
        cones = tuple(
            tuple(sorted([x for x in first if x != i] + [y for y in second if y != j]))
            for i in first
            for j in second
        )
        return FanSpec(n=n, extra_rays=(v1, v2), max_cones=cones)
    if name == "hirzebruch_f1":
        if params:
            raise BadParams(f"hirzebruch_f1 takes no parameters, got {params}")
        return FanSpec(
            n=2,
            extra_rays=((1, 1), (0, 1)),
            max_cones=((0, 1), (1, 2), (2, 3), (0, 3)),
        )
    if name == "f2_nonfano":
        if params:
            raise BadParams(f"f2_nonfano takes no parameters, got {params}")
        return FanSpec(
            n=2,
            extra_rays=((0, 1), (1, 2)),
            max_cones=((0, 1), (1, 3), (2, 3), (0, 2)),
        )
    raise UnknownName(f"unknown builtin fan {name!r}")


def _require_int_param(params: dict, key: str) -> int:
    if key not in params:
        raise BadParams(f"missing parameter {key!r}")
    return require_int(params.pop(key), f"parameter {key!r}")
