"""Monte-Carlo verification of every implemented inequality.

Class members are built from finite atomic probability measures on the
unit circle: each measure generates a Caratheodory function through the
Herglotz representation, whose coefficients are transported to member
coefficients.  Positivity of the real part is exact by construction, so
any inequality violation beyond numerical slack falsifies the
implementation (or the inequality).

Each inequality has one evaluator, which works on rows of member
coefficients (one row per member).  :func:`check_bohr`,
:func:`check_coefficient_bounds` and :func:`check_fs_and_log_bounds` call
it with one row; :func:`falsification_sweep` calls it on blocks of sampled
members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import bounds as _bounds
from .extremal import (
    BetaParam,
    beta_value,
    eval_extremal,
    extremal_at_minus_one,
    extremal_coeff,
)
from .radii import RadiusProblem, Variant, solve_radius

TWO_PI = 2.0 * math.pi

DEFAULT_ORDER = 64

DEFAULT_SLACK = 1e-9

# What the sweep checks: |a_n| for n = 2..N_MAX, Fekete-Szego at each mu of
# MU_GRID, and the Bohr and Rogosinski (sections from ROGOSINSKI_N) radius
# checks RADIUS_OFFSET inside their roots.
N_MAX = 20
MU_GRID = (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0)
RADIUS_OFFSET = 1e-3
ROGOSINSKI_N = 2

# Samples the sweep checks together: enough that numpy's per-call overhead
# is small next to drawing the samples, few enough that the (block x order)
# temporaries stay small (with 4 atoms and order 64, 128-sample blocks
# raised the verify process's peak RSS by ~0.8 MB, 64-sample blocks by
# ~0.35 MB; x86-64, numpy 2.4).
_BLOCK = 64


@dataclass(frozen=True)
class HerglotzMeasure:
    """Finite atomic probability measure on the unit circle."""

    weights: np.ndarray
    angles: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        t = np.asarray(self.angles, dtype=float) % TWO_PI
        if w.size == 0 or w.size != t.size:
            raise ValueError("need at least one atom and matching weight/angle counts")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "angles", t)

    @classmethod
    def point_mass(cls, angle: float = 0.0) -> "HerglotzMeasure":
        """Single atom; at angle 0 it generates c_n = 2 for all n."""
        return cls(np.array([1.0]), np.array([float(angle)]))

    @classmethod
    def two_atom_pm(cls) -> "HerglotzMeasure":
        """Equal atoms at +-1, generating c_n = 1 + (-1)^n (c1=0, c2=2)."""
        return cls(np.array([0.5, 0.5]), np.array([0.0, math.pi]))


def sample_measure(num_atoms: int, seed: int) -> HerglotzMeasure:
    """Deterministic random measure: simplex-uniform weights, uniform angles."""
    if num_atoms < 1:
        raise ValueError(f"num_atoms must be >= 1, got {num_atoms}")
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(num_atoms))
    angles = rng.uniform(0.0, TWO_PI, size=num_atoms)
    # Valid by construction (weights on the simplex, angles in [0, 2pi), on
    # which % 2pi is the identity), so __post_init__ is not run again.
    mu = object.__new__(HerglotzMeasure)
    object.__setattr__(mu, "weights", weights)
    object.__setattr__(mu, "angles", angles)
    return mu


def measure_to_caratheodory(mu: HerglotzMeasure, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Caratheodory coefficients c_0 = 1, c_n = 2 sum_j w_j e^{i n theta_j},
    n = 1..order."""
    c = np.empty(order + 1, dtype=complex)
    c[0] = 1.0
    c[1:] = _herglotz_coefficients(mu, np.arange(1, order + 1))
    return c


def _herglotz_coefficients(mu: HerglotzMeasure, n: np.ndarray) -> np.ndarray:
    # The sweep calls this once per sample as well, rather than summing the
    # atoms one at a time over a block of samples: that order rounds
    # differently from this product and moved recorded max_violation values
    # by an ulp (1.8e-15 at magnitude 8).
    return 2.0 * np.exp(1j * np.outer(n, mu.angles)) @ mu.weights


def caratheodory_to_member(c: np.ndarray, beta: "BetaParam | float") -> np.ndarray:
    """Taylor coefficients a_1..a_{N+1} of the class member generated by p,
    for one row c_0..c_N of Caratheodory coefficients or a block of rows.

    The defining relation beta*f(z)/z + (1-beta)*f'(z) = p(z) matches the
    z^{n-1} coefficient as (beta + (1-beta)*n) * a_n = c_{n-1}, i.e.
    a_n = c_{n-1} / (n - beta*(n-1)) for n >= 2, with a_1 = 1 forced by
    the normalization p(0) = 1.  (Derivation in docs/coefficients.md.)

    Index k of each returned row holds a_{k+1}.
    """
    c = np.asarray(c, dtype=complex)
    if not np.all(c[..., 0] == 1):
        raise ValueError(f"Caratheodory rows must have c_0 = 1, got {c[..., 0]}")
    b = beta_value(beta)
    n = np.arange(2, c.shape[-1] + 1, dtype=float)
    a = np.empty(c.shape, dtype=complex)
    a[..., 0] = 1.0
    a[..., 1:] = c[..., 1:] / ((1.0 - b) * n + b)
    return a


@dataclass(frozen=True)
class ClassMember:
    """A concrete class member: `a` stores the Taylor coefficients with
    a[k] = a_{k+1} (so a[0] = 1), through the truncation order."""

    beta: BetaParam
    a: np.ndarray

    @classmethod
    def from_caratheodory(cls, c: np.ndarray, beta: "BetaParam | float") -> "ClassMember":
        bp = beta if isinstance(beta, BetaParam) else BetaParam(float(beta))
        return cls(beta=bp, a=caratheodory_to_member(c, bp))

    @classmethod
    def from_measure(
        cls, mu: HerglotzMeasure, beta: "BetaParam | float", order: int = DEFAULT_ORDER
    ) -> "ClassMember":
        return cls.from_caratheodory(measure_to_caratheodory(mu, order), beta)

    @classmethod
    def extremal(cls, beta: "BetaParam | float", order: int = DEFAULT_ORDER) -> "ClassMember":
        """The sharpness member: point mass at angle 0 (c_n = 2 for all n)."""
        return cls.from_measure(HerglotzMeasure.point_mass(), beta, order)

    @property
    def order(self) -> int:
        return self.a.size - 1

    @property
    def a2(self) -> complex:
        return complex(self.a[1])

    @property
    def a3(self) -> complex:
        return complex(self.a[2])


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one inequality check: pass iff rhs - lhs >= -slack."""

    inequality_id: str
    lhs: float
    rhs: float
    witness: str
    slack: float = DEFAULT_SLACK

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.margin >= -self.slack


# A family of checks over rows of member coefficients: the check ids and
# lhs, rhs arrays that broadcast to (rows x ids); check k holds on a row
# iff rhs - lhs >= -slack there.
_Checks = tuple[list[str], np.ndarray, np.ndarray]


def _columns(*columns: "np.ndarray | float") -> np.ndarray:
    """Row vectors and scalars side by side as a (rows x columns) array."""
    return np.stack(np.broadcast_arrays(*columns), axis=1)


def _coefficient_checks(a: np.ndarray, beta: BetaParam, n_max: int) -> _Checks:
    """|a_n| against the sharp coefficient bound, n = 2..n_max."""
    ns = range(2, n_max + 1)
    rhs = np.array([extremal_coeff(n, beta) for n in ns])
    return [f"coeff[n={n}]" for n in ns], _bounds.complex_modulus(a[:, 1:n_max]), rhs


def _fs_and_log_checks(a: np.ndarray, beta: BetaParam) -> _Checks:
    """Fekete-Szego over MU_GRID, then both logarithmic-difference ranges."""
    b = beta.value
    a2, a3 = a[:, 1], a[:, 2]
    gamma = _bounds.log_coeffs(a2, a3).moduli_difference
    inv = _bounds.inverse_log_coeffs(a2, a3).moduli_difference
    lo, hi = _bounds.log_diff_bounds(b)
    lo_i, hi_i = _bounds.inverse_log_diff_bounds(b)
    ids = [f"fekete_szego[mu={mu:g}]" for mu in MU_GRID] + [
        "log_diff_upper",
        "log_diff_lower",
        "inverse_log_diff_upper",
        "inverse_log_diff_lower",
    ]
    fs = (_bounds.fekete_szego_functional(a2, a3, mu) for mu in MU_GRID)
    lhs = _columns(*fs, gamma, lo, inv, lo_i)
    rhs = _columns(
        *(_bounds.fekete_szego_bound(mu, b) for mu in MU_GRID), hi, gamma, hi_i, inv
    )
    return ids, lhs, rhs


def _reports(checks: _Checks, witness: str, slack: float) -> list[BoundReport]:
    """One report per check of a one-row family."""
    ids, lhs, rhs = checks
    lhs, rhs = np.broadcast_arrays(lhs, rhs)
    return [
        BoundReport(check_id, float(l), float(r), witness, slack)
        for check_id, l, r in zip(ids, lhs[0], rhs[0])
    ]


def _normalized_area_rows(a: np.ndarray, r: float) -> np.ndarray:
    """S_r/pi = sum n |a_n|^2 r^{2n} of each row of member coefficients."""
    n = np.arange(1, a.shape[1] + 1, dtype=float)
    return np.sum(n * np.abs(a) ** 2 * (r * r) ** n, axis=1)


def _coefficient_tail_bound(beta: BetaParam, order: int, r: float) -> float:
    """Certified bound on sum_{n > order + 1} |a_n| r^n via the sharp coefficients."""
    n0 = order + 2
    tail = extremal_coeff(n0, beta) * r ** n0 / (1.0 - r)
    if tail > 1e-9:
        raise ValueError(f"truncation order {order} cannot certify the majorant at r = {r}")
    return tail


# Rows of member coefficients -> one majorant value per row.
_Majorant = Callable[[np.ndarray], np.ndarray]


def _majorant(problem: RadiusProblem, beta: BetaParam, order: int, r: float) -> _Majorant:
    """The problem's Bohr (sum from n = 2) or Bohr-Rogosinski (sum from n = N)
    majorant at |z| = r with w_n(z) = z^n, as a map from rows of member
    coefficients a_1..a_{order+1} to lead + sum_n |a_n| r^n + tail +
    F(S_r/pi), where tail bounds the terms beyond the truncation order.

    The Bohr lead is r^{mp}; the Rogosinski lead bounds |f(z^m)|^p by the
    sharp growth estimate at r^m, the estimate the radius equations use.
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"r must lie in (0, 1), got {r}")
    tail = _coefficient_tail_bound(beta, order, r)
    m, p, F = problem.m, problem.p, problem.F
    if problem.variant is Variant.BOHR_SCHWARZ:
        start, lead = 2, (r ** m) ** p
    else:
        start, lead = problem.N, eval_extremal(r ** m, beta) ** p
    powers = r ** np.arange(start, order + 2, dtype=float)

    def majorant(a: np.ndarray) -> np.ndarray:
        body = np.sum(np.abs(a[:, start - 1 :]) * powers, axis=1)
        value = lead + (body + tail)
        if F.is_zero:
            return value  # F(S_r/pi) = 0: the area is not needed
        return value + F(_normalized_area_rows(a, r))

    return majorant


def _radius_check(
    problem: RadiusProblem, beta: BetaParam, order: int, at: float
) -> tuple[str, str, _Majorant, float]:
    """Id, witness, majorant and level -f(-1) of the problem's check at `at`."""
    tag = "bohr" if problem.variant is Variant.BOHR_SCHWARZ else "rogosinski"
    return (
        f"{tag}[beta={beta.value:g},m={problem.m},p={problem.p:g},N={problem.N}]",
        f"r={at!r}, mode=monomial",
        _majorant(problem, beta, order, at),
        -extremal_at_minus_one(beta),
    )


def check_bohr(
    member: ClassMember, problem: RadiusProblem, at: float, slack: float = DEFAULT_SLACK
) -> BoundReport:
    """Compare the problem's majorant at radius `at` against -f(-1).

    -f(-1) is the proven lower bound for the distance from the origin to
    the image boundary, which is exactly the level the majorant is
    guaranteed to stay below inside the radius.
    """
    if not 0.0 < at < 1.0:
        raise ValueError(f"at must lie in (0, 1), got {at}")
    check_id, witness, majorant, rhs = _radius_check(problem, member.beta, member.order, at)
    return BoundReport(check_id, float(majorant(member.a[None])[0]), rhs, witness, slack)


def check_coefficient_bounds(
    member: ClassMember, n_max: int, slack: float = DEFAULT_SLACK
) -> list[BoundReport]:
    """|a_n| against the sharp coefficient bound, one report per n in [2, n_max]."""
    if n_max > member.a.size:
        raise ValueError(f"n_max = {n_max} exceeds truncation order {member.order}")
    checks = _coefficient_checks(member.a[None], member.beta, n_max)
    return _reports(checks, f"beta={member.beta.value:g}", slack)


def check_fs_and_log_bounds(
    member: ClassMember, slack: float = DEFAULT_SLACK
) -> list[BoundReport]:
    """Fekete-Szego over MU_GRID plus both logarithmic-difference ranges."""
    checks = _fs_and_log_checks(member.a[None], member.beta)
    return _reports(checks, f"beta={member.beta.value:g}", slack)


@dataclass(frozen=True)
class VerifyConfig:
    """Controls for a Monte-Carlo verification sweep.

    Each validation error starts with the name of the offending field.
    """

    samples: int = 1000
    atoms: int = 4
    seed: int = 0
    slack: float = DEFAULT_SLACK

    def __post_init__(self) -> None:
        # Zero samples would check nothing and report all_pass.
        if self.samples < 1:
            raise ValueError(f"samples: must be >= 1, got {self.samples}")
        if self.atoms < 1:
            raise ValueError(f"atoms: must be >= 1, got {self.atoms}")
        if self.seed < 0:
            raise ValueError(f"seed: must be >= 0, got {self.seed}")
        # A nan slack passes nothing and an infinite one everything.
        if not (math.isfinite(self.slack) and self.slack >= 0.0):
            raise ValueError(f"slack: must be finite and >= 0, got {self.slack}")


@dataclass(frozen=True)
class InequalityRecord:
    """Worst observed margin for one inequality across a sweep."""

    inequality_id: str
    max_violation: float  # max over samples of lhs - rhs
    witness: str
    checks: int


@dataclass(frozen=True)
class SweepSummary:
    slack: float
    records: tuple[InequalityRecord, ...] = field(default=())

    @property
    def all_pass(self) -> bool:
        return all(rec.max_violation <= self.slack for rec in self.records)


def _caratheodory_rows(atoms: int, seeds: range, order: int) -> np.ndarray:
    """Rows c_0..c_order of the sampled measures, one row per seed."""
    harmonics = np.arange(1, order + 1)
    c = np.empty((len(seeds), order + 1), dtype=complex)
    c[:, 0] = 1.0
    for row, seed in enumerate(seeds):
        c[row, 1:] = _herglotz_coefficients(sample_measure(atoms, seed), harmonics)
    return c


def _fold_block(
    worst: dict[str, list],
    ids: list[str],
    violation: np.ndarray,
    witness: str,
    seeds: range,
) -> None:
    """Fold a (samples x ids) block of lhs - rhs into the running records.

    argmax returns the first of equal maxima and a later block replaces a
    record only when strictly worse, so each witness is the first sample
    that attains the maximum.
    """
    rows = np.argmax(violation, axis=0)
    worst_values = violation[rows, np.arange(len(ids))].tolist()
    for check_id, row, value in zip(ids, rows.tolist(), worst_values):
        record = worst.get(check_id)
        if record is None or value > record[0]:
            checks = len(seeds) + (record[2] if record else 0)
            worst[check_id] = [value, f"{witness}, seed={seeds[row]}", checks]
        else:
            record[2] += len(seeds)


def falsification_sweep(
    beta_grid: "tuple[float, ...] | list[float]",
    config: VerifyConfig = VerifyConfig(),
) -> SweepSummary:
    """Maximize lhs - rhs of every inequality over sampled members.

    Sample si of grid entry gi is the member of
    ``sample_measure(config.atoms, seed)`` with
    ``seed = config.seed * 1_000_003 + gi * 100_003 + si``, and each witness
    names that seed.  Records are merged in grid order, so identical inputs
    produce identical summaries.  Members are checked in blocks: one array
    expression per inequality family and block.
    """
    worst: dict[str, list] = {}  # id -> [max violation, witness, checks]
    for gi, beta in enumerate(beta_grid):
        bp = BetaParam(float(beta))
        radius_checks = []
        for problem in (
            RadiusProblem(Variant.BOHR_SCHWARZ, bp, m=1, p=1.0),
            RadiusProblem(Variant.BOHR_ROGOSINSKI, bp, m=1, p=1.0, N=ROGOSINSKI_N),
        ):
            # Just inside the root; half of it for roots below twice the offset.
            root = solve_radius(problem).root
            at = root - min(RADIUS_OFFSET, 0.5 * root)
            radius_checks.append(_radius_check(problem, bp, DEFAULT_ORDER, at))
        first_seed = config.seed * 1_000_003 + gi * 100_003
        for start in range(0, config.samples, _BLOCK):
            seeds = range(first_seed + start, first_seed + min(start + _BLOCK, config.samples))
            c = _caratheodory_rows(config.atoms, seeds, DEFAULT_ORDER)
            a = caratheodory_to_member(c, bp)
            for ids, lhs, rhs in (_coefficient_checks(a, bp, N_MAX), _fs_and_log_checks(a, bp)):
                _fold_block(worst, ids, lhs - rhs, f"beta={bp.value:g}", seeds)
            for check_id, witness, majorant, rhs in radius_checks:
                _fold_block(worst, [check_id], majorant(a)[:, None] - rhs, witness, seeds)
    records = tuple(
        InequalityRecord(check_id, v, w, n) for check_id, (v, w, n) in worst.items()
    )
    return SweepSummary(slack=config.slack, records=records)
