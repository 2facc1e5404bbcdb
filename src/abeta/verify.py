"""Monte-Carlo verification of every implemented inequality.

Class members are built from finite atomic probability measures on the
unit circle: each measure generates a Caratheodory function through the
Herglotz representation, whose coefficients are transported to member
coefficients.  Positivity of the real part is exact by construction, so
any inequality violation beyond numerical slack falsifies the
implementation (or the inequality).

Each inequality has one evaluator, which works on rows of member
coefficients (one row per member).  The single-member checks call it with
one row; :func:`falsification_sweep` calls it on blocks of sampled members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import bounds as _bounds
from .extremal import (
    DEFAULT_CONFIG,
    BetaParam,
    ExtremalEvalConfig,
    eval_extremal,
    extremal_at_minus_one,
    extremal_coeff,
)
from .radii import (
    AreaFunctional,
    RadiusProblem,
    Variant,
    ZERO_POLYNOMIAL,
    solve_radius,
)
from .series import DEFAULT_ORDER, TruncatedSeries, caratheodory_to_member, transport_rows

TWO_PI = 2.0 * math.pi

DEFAULT_SLACK = 1e-9

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


def measure_to_caratheodory(mu: HerglotzMeasure, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Caratheodory coefficients c_0 = 1, c_n = 2 sum_j w_j e^{i n theta_j}."""
    c = np.empty(order + 1, dtype=complex)
    c[0] = 1.0
    c[1:] = _herglotz_coefficients(mu, np.arange(1, order + 1))
    return TruncatedSeries(c)


def _herglotz_coefficients(mu: HerglotzMeasure, n: np.ndarray) -> np.ndarray:
    # The sweep calls this once per sample as well, rather than summing the
    # atoms one at a time over a block of samples: that order rounds
    # differently from this product and moved recorded max_violation values
    # by an ulp (1.8e-15 at magnitude 8).
    return 2.0 * np.exp(1j * np.outer(n, mu.angles)) @ mu.weights


@dataclass(frozen=True)
class ClassMember:
    """A concrete class member, represented through its Caratheodory source.

    `a` stores the Taylor coefficients with a[k] = a_{k+1} (so a[0] = 1).
    """

    beta: BetaParam
    c: TruncatedSeries
    a: np.ndarray

    @classmethod
    def from_caratheodory(cls, c: TruncatedSeries, beta: "BetaParam | float") -> "ClassMember":
        bp = beta if isinstance(beta, BetaParam) else BetaParam(float(beta))
        return cls(beta=bp, c=c, a=caratheodory_to_member(c, bp))

    @classmethod
    def from_measure(
        cls, mu: HerglotzMeasure, beta: "BetaParam | float", order: int = DEFAULT_ORDER
    ) -> "ClassMember":
        return cls.from_caratheodory(measure_to_caratheodory(mu, order), beta)

    @classmethod
    def extremal(cls, beta: "BetaParam | float", order: int = DEFAULT_ORDER) -> "ClassMember":
        """The sharpness member: point mass at angle 0 (c_n = 2 for all n)."""
        return cls.from_measure(HerglotzMeasure.point_mass(), beta, order)

    @classmethod
    def identity(cls, beta: "BetaParam | float", order: int = DEFAULT_ORDER) -> "ClassMember":
        """f(z) = z, generated by p == 1."""
        c = np.zeros(order + 1, dtype=complex)
        c[0] = 1.0
        return cls.from_caratheodory(TruncatedSeries(c), beta)

    @property
    def order(self) -> int:
        return self.c.order

    @property
    def a2(self) -> complex:
        return complex(self.a[1])

    @property
    def a3(self) -> complex:
        return complex(self.a[2])

    def generator_real_part(self, z: complex) -> float:
        """Re(beta*f(z)/z + (1-beta)*f'(z)) = Re p(z), by truncated series."""
        return float(np.real(self.c.eval(z)))


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


def _fs_and_log_checks(
    a: np.ndarray, beta: BetaParam, mu_grid: tuple[float, ...]
) -> _Checks:
    """Fekete-Szego over the mu grid, then both logarithmic-difference ranges."""
    b = beta.value
    a2, a3 = a[:, 1], a[:, 2]
    gamma = _bounds.log_coeffs(a2, a3).moduli_difference
    inv = _bounds.inverse_log_coeffs(a2, a3).moduli_difference
    lo, hi = _bounds.log_diff_bounds(b)
    lo_i, hi_i = _bounds.inverse_log_diff_bounds(b)
    ids = [f"fekete_szego[mu={mu:g}]" for mu in mu_grid] + [
        "log_diff_upper",
        "log_diff_lower",
        "inverse_log_diff_upper",
        "inverse_log_diff_lower",
    ]
    fs = (_bounds.fekete_szego_functional(a2, a3, mu) for mu in mu_grid)
    lhs = _columns(*fs, gamma, lo, inv, lo_i)
    rhs = _columns(
        *(_bounds.fekete_szego_bound(mu, b) for mu in mu_grid), hi, gamma, hi_i, inv
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


def _damping(r: float) -> float:
    # Fixed unit-bounded analytic factor (a real Blaschke-type factor),
    # used to exercise non-monomial Schwarz functions.
    return (r + 0.5) / (1.0 + 0.5 * r)


def _schwarz_factor(r: float, mode: str) -> float:
    if mode == "monomial":
        return 1.0
    if mode == "damped":
        return _damping(r)
    raise ValueError(f"unknown schwarz_mode {mode!r}")


def _normalized_area_rows(a: np.ndarray, r: float) -> np.ndarray:
    n = np.arange(1, a.shape[1] + 1, dtype=float)
    return np.sum(n * np.abs(a) ** 2 * (r * r) ** n, axis=1)


def normalized_area(member: ClassMember, r: float) -> float:
    """S_r/pi = sum n |a_n|^2 r^{2n} from the member's own coefficients."""
    return float(_normalized_area_rows(member.a[None], r)[0])


def _coefficient_tail_bound(
    beta: BetaParam, order: int, r: float, cfg: ExtremalEvalConfig
) -> float:
    """Certified bound on sum_{n > order + 1} |a_n| r^n via the sharp coefficients."""
    n0 = order + 2
    tail = extremal_coeff(n0, beta) * r ** n0 / (1.0 - r)
    if tail > max(cfg.tolerance, 1e-9):
        raise ValueError(f"truncation order {order} cannot certify the majorant at r = {r}")
    return tail


# Rows of member coefficients -> one majorant value per row.
_Majorant = Callable[[np.ndarray], np.ndarray]


def _majorant(
    variant: Variant,
    beta: BetaParam,
    order: int,
    r: float,
    N: int,
    m: int,
    p: float,
    F: AreaFunctional,
    schwarz_mode: str,
    cfg: ExtremalEvalConfig,
) -> _Majorant:
    """The Bohr (sum from n = 2) or Bohr-Rogosinski (sum from n = N)
    majorant at |z| = r, as a map from rows of member coefficients
    a_1..a_{order+1} to lead + psi * (sum_n |a_n| r^n + tail) + F(S_r/pi),
    where tail bounds the terms beyond the truncation order."""
    if not 0.0 < r < 1.0:
        raise ValueError(f"r must lie in (0, 1), got {r}")
    tail = _coefficient_tail_bound(beta, order, r, cfg)
    psi = _schwarz_factor(r, schwarz_mode)
    if variant is Variant.BOHR_SCHWARZ:
        start, lead = 2, (r ** m * psi) ** p
    else:
        start, lead = N, eval_extremal(r ** m * psi, beta, cfg) ** p
    powers = r ** np.arange(start, order + 2, dtype=float)

    def majorant(a: np.ndarray) -> np.ndarray:
        body = np.sum(np.abs(a[:, start - 1 :]) * powers, axis=1)
        value = lead + (body + tail) * psi
        if getattr(F, "is_zero", False):
            return value  # F(S_r/pi) = 0: the area is not needed
        return value + [F(float(w)) for w in _normalized_area_rows(a, r)]

    return majorant


def bohr_sum(
    member: ClassMember,
    r: float,
    m: int = 1,
    p: float = 1.0,
    F: AreaFunctional = ZERO_POLYNOMIAL,
    schwarz_mode: str = "monomial",
    cfg: ExtremalEvalConfig = DEFAULT_CONFIG,
) -> float:
    """Majorant |w_m(z)|^p + sum_{n>=2} |a_n| |w_n(z)| + F(S_r/pi) at |z| = r.

    Monomial mode uses w_n(z) = z^n (the sharpness configuration); damped
    mode multiplies each w_n by a fixed unit-bounded analytic factor.  The
    certified bound on the coefficients beyond the truncation order is
    included, so the value never falls below the untruncated majorant.
    """
    majorant = _majorant(
        Variant.BOHR_SCHWARZ, member.beta, member.order, r, 2, m, p, F, schwarz_mode, cfg
    )
    return float(majorant(member.a[None])[0])


def rogosinski_sum(
    member: ClassMember,
    r: float,
    N: int,
    m: int = 1,
    p: float = 1.0,
    F: AreaFunctional = ZERO_POLYNOMIAL,
    schwarz_mode: str = "monomial",
    cfg: ExtremalEvalConfig = DEFAULT_CONFIG,
) -> float:
    """Majorant |f(w_m(z))|^p + sum_{n>=N} |a_n| |w_n(z)| + F(S_r/pi).

    |f(w_m(z))| is upper-bounded by the sharp growth estimate at r^m,
    which is the estimate the radius equations themselves rely on.  The
    certified truncation tail is included, as in :func:`bohr_sum`.
    """
    majorant = _majorant(
        Variant.BOHR_ROGOSINSKI, member.beta, member.order, r, N, m, p, F, schwarz_mode, cfg
    )
    return float(majorant(member.a[None])[0])


def _radius_check(
    problem: RadiusProblem, beta: BetaParam, order: int, at: float, schwarz_mode: str
) -> tuple[str, str, _Majorant, float]:
    """Id, witness, majorant and level -f(-1) of the problem's check at `at`."""
    tag = "bohr" if problem.variant is Variant.BOHR_SCHWARZ else "rogosinski"
    majorant = _majorant(
        problem.variant, beta, order, at, problem.N, problem.m, problem.p,
        problem.F, schwarz_mode, problem.config,
    )
    return (
        f"{tag}[beta={beta.value:g},m={problem.m},p={problem.p:g},N={problem.N}]",
        f"r={at!r}, mode={schwarz_mode}",
        majorant,
        -extremal_at_minus_one(beta, problem.config),
    )


def check_bohr(
    member: ClassMember,
    problem: RadiusProblem,
    at: float,
    schwarz_mode: str = "monomial",
    slack: float = DEFAULT_SLACK,
) -> BoundReport:
    """Compare the problem's majorant at radius `at` against -f(-1).

    -f(-1) is the proven lower bound for the distance from the origin to
    the image boundary, which is exactly the level the majorant is
    guaranteed to stay below inside the radius.
    """
    if not 0.0 < at < 1.0:
        raise ValueError(f"at must lie in (0, 1), got {at}")
    check_id, witness, majorant, rhs = _radius_check(
        problem, member.beta, member.order, at, schwarz_mode
    )
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
    member: ClassMember,
    mu_grid: tuple[float, ...] = (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0),
    slack: float = DEFAULT_SLACK,
) -> list[BoundReport]:
    """Fekete-Szego over the mu grid plus both logarithmic-difference ranges."""
    checks = _fs_and_log_checks(member.a[None], member.beta, mu_grid)
    return _reports(checks, f"beta={member.beta.value:g}", slack)


@dataclass(frozen=True)
class VerifyConfig:
    """Controls for a Monte-Carlo verification sweep.

    Each validation error starts with the name of the offending field.
    """

    samples: int = 1000
    atoms: int = 4
    seed: int = 0
    order: int = DEFAULT_ORDER
    slack: float = DEFAULT_SLACK
    n_max: int = 20
    mu_grid: tuple[float, ...] = (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0)
    radius_offset: float = 1e-3
    rogosinski_N: int = 2

    def __post_init__(self) -> None:
        if self.samples < 0:
            raise ValueError(f"samples: must be >= 0, got {self.samples}")
        if self.atoms < 1:
            raise ValueError(f"atoms: must be >= 1, got {self.atoms}")
        if self.order < self.n_max:
            raise ValueError(f"order: must be >= n_max = {self.n_max}, got {self.order}")
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
            RadiusProblem(Variant.BOHR_ROGOSINSKI, bp, m=1, p=1.0, N=config.rogosinski_N),
        ):
            # Just inside the root; half of it for roots below twice the offset.
            root = solve_radius(problem).root
            at = root - min(config.radius_offset, 0.5 * root)
            radius_checks.append(_radius_check(problem, bp, config.order, at, "monomial"))
        first_seed = config.seed * 1_000_003 + gi * 100_003
        for start in range(0, config.samples, _BLOCK):
            seeds = range(first_seed + start, first_seed + min(start + _BLOCK, config.samples))
            a = transport_rows(_caratheodory_rows(config.atoms, seeds, config.order), bp)
            for ids, lhs, rhs in (
                _coefficient_checks(a, bp, config.n_max),
                _fs_and_log_checks(a, bp, config.mu_grid),
            ):
                _fold_block(worst, ids, lhs - rhs, f"beta={bp.value:g}", seeds)
            for check_id, witness, majorant, rhs in radius_checks:
                _fold_block(worst, [check_id], majorant(a)[:, None] - rhs, witness, seeds)
    records = tuple(
        InequalityRecord(check_id, v, w, n) for check_id, (v, w, n) in worst.items()
    )
    return SweepSummary(slack=config.slack, records=records)
