"""Sharp Bohr-type radii and coefficient bounds for a filtration of
semigroup generators on the unit disk, with Monte-Carlo verification."""

from .bounds import (
    fekete_szego_bound,
    inverse_log_diff_bounds,
    log_coeffs,
    log_diff_bounds,
)
from .extremal import (
    BetaDomainError,
    BetaParam,
    ConvergenceError,
    area_majorant,
    eval_extremal,
    extremal_at_minus_one,
    extremal_coeff,
    growth_envelope,
)
from .radii import (
    AreaPolynomial,
    RadiusProblem,
    Variant,
    baseline_bohr_radius,
    solve_radius,
)

__version__ = "0.1.0"

__all__ = [
    "AreaPolynomial",
    "BetaDomainError",
    "BetaParam",
    "ConvergenceError",
    "RadiusProblem",
    "Variant",
    "VerifyConfig",
    "area_majorant",
    "baseline_bohr_radius",
    "eval_extremal",
    "extremal_at_minus_one",
    "extremal_coeff",
    "falsification_sweep",
    "fekete_szego_bound",
    "growth_envelope",
    "inverse_log_diff_bounds",
    "log_coeffs",
    "log_diff_bounds",
    "solve_radius",
]

# verify needs numpy, which costs more than every other import together;
# its names are resolved on first use so the radius and bound commands
# never load it.
_LAZY = ("VerifyConfig", "falsification_sweep")


def __getattr__(name: str):
    if name in _LAZY:
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
