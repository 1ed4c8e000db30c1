"""Disk-count engine for smooth toric Fano compactifications of C^n.

Builds Clifford- and Chekanov-side Landau-Ginzburg superpotentials over the
Novikov field, pushes them through the wall-crossing gluing map, and tabulates
one-pointed open Gromov-Witten invariants.

Importing the package loads fan, series and wallcross, which every
superpotential, gluing, table and identity runs.  The names of chambers
(base chambers, walls, monodromy) and novikov (Novikov scalars, energies,
evaluation) load their module on first use, through the module
__getattr__ below (PEP 562): opengw.X and from opengw import X reach the
same objects as before.
"""

from .fan import (
    EnergyValues,
    FanSpec,
    RelClass,
    ValidationReport,
    beta_class,
    beta_hat_class,
    beta_prime_class,
    builtin_fan,
    class_boundary,
    class_maslov,
    class_name,
    det_int,
    gamma_class,
    ray_decomposition,
    sphere_class,
    validate_fan,
    zero_class,
)
from .series import (
    DEFAULT_TRUNC,
    ClassSeries,
    from_records,
    monomial,
    multiply,
    power,
    series_exp,
    series_log,
    to_records,
    truncate_gamma,
)
from .wallcross import (
    Ambient,
    Chart,
    Direction,
    GluingData,
    InvariantRow,
    InvariantTable,
    Superpotential,
    apply_gluing,
    chekanov_superpotential,
    clifford_superpotential,
    closed_form_invariant,
    glue_superpotential,
    invariant_table,
    solve_exp_G,
    verify_wall_cross_identity,
    wall_cross_rhs,
    wall_crossing_factor,
)

__version__ = "0.1.0"

# name: the module that defines it, imported on first use
_LAZY = {
    **dict.fromkeys((
        "B_MINUS", "B_PLUS", "DISCRIMINANT", "Chamber", "ChamberPoint", "CYFanRays",
        "classify_point", "cn_rays", "monodromy_matrix", "wall", "wall_component_tropical",
    ), "chambers"),
    **dict.fromkeys((
        "EnergyAssignment", "NovikovLaurent", "NovikovScalar", "assign_energies", "constant",
        "evaluate", "gauss_valuation", "laurent_mul", "scalar_inverse", "scalar_pow",
        "scalar_val", "t_monomial", "toric_superpotential", "trop",
    ), "novikov"),
}


def __getattr__(name):
    # only for names not yet in the globals: a lazy one is imported and
    # kept there; any other raises, so that from opengw import novikov
    # falls through to the submodule
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
