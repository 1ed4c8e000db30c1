"""Chamber geometry of the fibration base over C^n.

The base is coordinatized by the n-1 differences lambda_k of the first
moment-map components and a final component q2 (normalized so the critical
level sits at q2 = 0 and the base boundary at q2 = -1).  Off the critical
level the fiber torus is of Clifford type (q2 > 0) or Chekanov type
(q2 < 0); on it, the point either lies on exactly one wall H_i or on the
discriminant where several walls meet.

The same walls can be read off tropically: for an anticanonically
normalized ray list (all rays pairing to 1 against a fixed covector m_0),
the locus where max_k(-<v_k, xi> - c_k) is attained twice is the tropical
hypersurface Pi, and the open regions around it are indexed by the rays.

Monodromy of the fibration across walls acts on disk classes through an
integer shear matrix.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BadParams, DimensionMismatch, IndexOutOfRange, OutsideBase
from .fan import (
    _require,
    _require_rationals,
    _require_seq,
    _Value,
    require_int,
    require_ints,
    require_rational,
)

IntVec = tuple[int, ...]


class Chamber(_Value):
    """Where a base point sits: BPlus, BMinus, Wall(i), or Discriminant."""

    __slots__ = ("kind", "index")

    def __init__(self, kind: str, index: int | None = None):
        _Value.__init__(self, kind, index)

    def __str__(self) -> str:
        if self.kind == "wall":
            return f"Wall({self.index})"
        return {"b_plus": "BPlus", "b_minus": "BMinus", "discriminant": "Discriminant"}[
            self.kind
        ]


B_PLUS = Chamber("b_plus")
B_MINUS = Chamber("b_minus")
DISCRIMINANT = Chamber("discriminant")


def wall(i: int) -> Chamber:
    return Chamber("wall", i)


class ChamberPoint(_Value):
    """Base point: the n-1 moment differences and the critical coordinate."""

    __slots__ = ("lam", "q2")

    def __init__(self, lam: tuple[Fraction, ...], q2: Fraction):
        _Value.__init__(self, _require_rationals(lam, "lambda"), require_rational(q2, "q2"))


def classify_point(n: int, point: ChamberPoint) -> Chamber:
    """Chamber of a base point.

    On the critical level q2 = 0 the wall index is the unique minimizer of
    (lambda_1, ..., lambda_{n-1}, 0); a tie means the discriminant.
    """
    n = require_int(n, "n")
    if n < 1:
        raise BadParams(f"n must be >= 1, got {n}")
    _require(point, ChamberPoint, "base point")
    if len(point.lam) != n - 1:
        raise DimensionMismatch(f"expected {n - 1} lambda components, got {len(point.lam)}")
    if point.q2 <= -1:
        raise OutsideBase(f"q2 = {point.q2} <= -1 lies outside the base")
    if point.q2 > 0:
        return B_PLUS
    if point.q2 < 0:
        return B_MINUS
    values = list(point.lam) + [Fraction(0)]
    mu = min(values)
    minimizers = [i for i, v in enumerate(values, start=1) if v == mu]
    if len(minimizers) == 1:
        return wall(minimizers[0])
    return DISCRIMINANT


class CYFanRays(_Value):
    """Rays of an anticanonically normalized fan, with facet constants.

    Every ray must pair to 1 against m_0 (default: the last coordinate
    functional), which puts all rays on a common affine hyperplane.
    """

    __slots__ = ("rays", "constants", "m0")

    def __init__(self, rays: tuple[IntVec, ...], constants: tuple[Fraction, ...] | None = None,
                 m0: IntVec | None = None):
        rays = tuple(require_ints(r, "ray") for r in _require_seq(rays, "rays"))
        if not rays:
            raise BadParams("need at least one ray")
        n = len(rays[0])
        if any(len(r) != n for r in rays):
            raise DimensionMismatch("rays must all have the same length")
        m0 = require_ints(m0, "m0") if m0 is not None else (0,) * (n - 1) + (1,)
        if len(m0) != n:
            raise DimensionMismatch("m0 must have the same length as the rays")
        for i, r in enumerate(rays):
            if sum(x * y for x, y in zip(r, m0)) != 1:
                raise BadParams(f"ray {i} = {r} does not pair to 1 against m0 = {m0}")
        if constants is None:
            constants = tuple(Fraction(0) for _ in rays)
        else:
            constants = _require_rationals(constants, "constants")
            if len(constants) != len(rays):
                raise DimensionMismatch("need one constant per ray")
        _Value.__init__(self, rays, constants, m0)

    @property
    def dim(self) -> int:
        return len(self.rays[0])

    @property
    def count(self) -> int:
        return len(self.rays)


def cn_rays(n: int, constants=None) -> CYFanRays:
    """The C^n fan in anticanonical normalization: v_0 = e_n and
    v_k = e_k + e_n for k = 1..n-1."""
    if require_int(n, "n") < 1:
        raise BadParams("n must be >= 1")
    rays = [tuple([0] * (n - 1) + [1])]
    for k in range(n - 1):
        rays.append(tuple(1 if j == k else 0 for j in range(n - 1)) + (1,))
    return CYFanRays(tuple(rays), constants)


def wall_component_tropical(rays: CYFanRays, xi) -> int | None:
    """Index of the tropical region containing xi, or None on the
    hypersurface Pi.

    Evaluates max_k(-<v_k, xi> - c_k) over the first n-1 coordinates of
    each ray; a unique argmax names the wall component.
    """
    _require(rays, CYFanRays, "rays")
    xi = _require_rationals(xi, "xi")
    if len(xi) != rays.dim - 1:
        raise DimensionMismatch(f"xi must have length {rays.dim - 1}, got {len(xi)}")
    values = []
    for v, c in zip(rays.rays, rays.constants):
        values.append(-sum(Fraction(a) * b for a, b in zip(v[:-1], xi)) - c)
    top = max(values)
    argmax = [k for k, val in enumerate(values) if val == top]
    if len(argmax) == 1:
        return argmax[0]
    return None


def monodromy_matrix(rays: CYFanRays, i: int, j: int) -> tuple[IntVec, ...]:
    """Integer shear for transport from the chart at ray i to the chart at
    ray j: identity with last column (v_j - v_i, 1)."""
    _require(rays, CYFanRays, "rays")
    i, j = require_int(i, "ray index i"), require_int(j, "ray index j")
    if not 0 <= i < rays.count:
        raise IndexOutOfRange(f"ray index i = {i} not in 0..{rays.count - 1}")
    if not 0 <= j < rays.count:
        raise IndexOutOfRange(f"ray index j = {j} not in 0..{rays.count - 1}")
    n = rays.dim
    vi, vj = rays.rays[i], rays.rays[j]
    out = []
    for r in range(n):
        row = [1 if c == r else 0 for c in range(n)]
        row[n - 1] = vj[r] - vi[r] if r < n - 1 else 1
        out.append(tuple(row))
    return tuple(out)

