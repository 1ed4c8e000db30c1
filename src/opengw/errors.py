"""Error types shared across the package.

Everything raised on bad or unsupported input derives from DomainError so
callers (and the command line driver) can distinguish "your data is wrong"
from an actual bug.  File-loading problems get their own subclasses because
the CLI reports them with a different exit code.
"""

from __future__ import annotations


class DomainError(Exception):
    """Base class for input-dependent failures."""


# fan data

class MissingCones(DomainError):
    """Operation needs maximal cones but the fan spec has none."""


class MalformedCone(DomainError):
    """A maximal cone does not consist of n distinct ray indices."""


class IndexOutOfRange(DomainError):
    """A ray, wall, or cone index is outside its valid range."""


class DimensionMismatch(DomainError):
    """Vector or series dimensions are inconsistent."""


class NonPrimitiveRay(DomainError):
    """An extra ray in a fan file is zero or not primitive."""


class UnknownName(DomainError):
    """Unrecognized builtin fan name."""


class BadParams(DomainError):
    """Parameters of a builtin fan or closed form are invalid."""


class UnsupportedFan(DomainError):
    """The fan's maximal cones fail a check of validate_fan (primitive,
    smooth, complete or Fano), so the fan is outside the smooth toric Fano
    compactifications whose disk counts the theorem gives."""


# series arithmetic

class NotInvertible(DomainError):
    """Series inversion or log needs constant term exactly 1."""


class NotFiltered(DomainError):
    """Series operation needs all terms in gamma-degree >= 1 with
    sign-compatible gamma support, so that truncation is exact."""


# wall-crossing

class NegativePa(DomainError):
    """An extra ray has negative coordinate sum, so the compactified
    Chekanov expansion is not defined."""

    def __init__(self, a: int, p: int):
        super().__init__(f"extra ray {a} has coordinate sum {p} < 0")
        self.a = a
        self.p = p


class MaslovViolation(DomainError):
    """A superpotential term has Maslov index other than 2."""


class NonIntegerInvariant(DomainError):
    """A disk count came out non-integral; refusing to round."""


class UnknownFamily(DomainError):
    """Unrecognized closed-form family."""


# fibration base

class OutsideBase(DomainError):
    """Point lies outside the fibration base (q2 <= -1)."""


# Novikov arithmetic

class ZeroCoordinate(DomainError):
    """Tropicalization or evaluation hit a zero coordinate."""


class EmptyPolytope(DomainError):
    """Gauss valuation needs at least one polytope vertex."""


class EnergyViolation(DomainError):
    """An energy assignment makes some disk class non-positive."""


class OutsidePolytope(DomainError):
    """Base point violates a facet inequality of the moment polytope."""

    def __init__(self, index: int, msg: str):
        super().__init__(msg)
        self.index = index


class DivisionByZero(DomainError):
    """Inverse of the zero Novikov scalar."""


# file formats

class ParseError(DomainError):
    """Input file is not valid JSON; message carries line and column."""


class SchemaError(DomainError):
    """Input file is valid JSON but not a valid document."""
