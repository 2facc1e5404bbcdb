"""Monte-Carlo verification of every implemented inequality.

Class members are built from finite atomic probability measures on the
unit circle: each measure generates a Caratheodory function through the
Herglotz representation, whose coefficients are transported to member
coefficients.  Positivity of the real part is exact by construction, so
any inequality violation beyond numerical slack falsifies the
implementation (or the inequality).

The inequalities come in families, each built once per beta as check ids,
a witness and one evaluator on rows of member coefficients (one row per
member).  :func:`check_bohr`, :func:`check_coefficient_bounds` and
:func:`check_fs_and_log_bounds` evaluate a family on a member's one row;
:func:`falsification_sweep` evaluates every family on blocks of sampled
members.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import bounds as _bounds
from .extremal import (
    BetaParam,
    beta_value,
    eval_extremal, extremal_at_minus_one,  # unused here; bench/tracing.py wraps both names
    extremal_coeff,
)
from .radii import BracketError, RadiusProblem, Variant, solve_radius

TWO_PI = 2.0 * math.pi

DEFAULT_ORDER = 64

DEFAULT_SLACK = 1e-9

_TAIL = 1e-16  # a radius majorant's sums stop where their certified tail is at most this

# What the sweep checks: |a_n| for n = 2..N_MAX, Fekete-Szego at each mu of
# MU_GRID, and the Bohr and Rogosinski (sections from ROGOSINSKI_N) radius
# checks RADIUS_OFFSET inside their roots.
N_MAX = 20
MU_GRID = (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0)
RADIUS_OFFSET = 1e-3
ROGOSINSKI_N = 2

# Most atoms a sampled measure may have.  A block holds (rows x 2 atoms)
# uniform draws and three (rows x atoms) complex arrays (16 bytes an entry)
# of the Herglotz product, so _BLOCK_ENTRIES bounds it; past that many atoms
# a block is one row, under 1 MB at this bound, and `verify --beta 0.5
# --atoms 10000 --samples 1024` peaks at about 36 MB RSS (x86-64, numpy 2.4).
MAX_ATOMS = 10_000

# Most samples, and samples x atoms, per beta: at about 2 us plus 0.1 us an
# atom a sample (2-core Xeon, numpy 2.4), a beta takes at most half a minute.
MAX_SAMPLES, MAX_SAMPLE_ATOMS = 10**7, 4 * 10**7

# Entries (rows x atoms) of the samples the sweep checks together, in blocks
# of max(1, _BLOCK_ENTRIES // atoms) rows.  No output depends on it, since
# sample si is row si of its stream; it trades numpy's per-call overhead
# against the (rows x atoms) arrays of the Herglotz product: with 4 atoms,
# 1024-row blocks cut a 3 x 3334-sample sweep from ~50 to ~22 ms and add
# ~1.6 MB to verify's ~37 MB peak RSS over 64-row ones (x86-64, numpy 2.4).
_BLOCK_ENTRIES = 4096


@dataclass(frozen=True, eq=False)  # arrays have no truth value: compare by identity
class HerglotzMeasure:
    """Finite atomic probability measure on the unit circle."""

    weights: np.ndarray
    angles: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        t = np.asarray(self.angles, dtype=float)
        if w.size == 0 or w.size != t.size:
            raise ValueError("need at least one atom and matching weight/angle counts")
        if not (np.isfinite(w).all() and np.isfinite(t).all()):
            raise ValueError("weights and angles must be finite")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "angles", t % TWO_PI)

    @classmethod
    def point_mass(cls) -> "HerglotzMeasure":
        """Single atom at angle 0, generating c_n = 2 for all n."""
        return cls(np.array([1.0]), np.array([0.0]))

    @classmethod
    def two_atom_pm(cls) -> "HerglotzMeasure":
        """Equal atoms at +-1, generating c_n = 1 + (-1)^n (c1=0, c2=2)."""
        return cls(np.array([0.5, 0.5]), np.array([0.0, math.pi]))


def sample_measure(num_atoms: int, seed: "int | list[int]", row: int = 0) -> HerglotzMeasure:
    """Measure `row` of the stream that :func:`_sample_rows` draws from
    ``np.random.default_rng(seed)``, rebuilt in O(1) by advancing past the
    rows before it (2 * num_atoms doubles each).  A sweep witness ending in
    ``seed=[S, gi], row=si`` is ``sample_measure(atoms, [S, gi], si)``.
    """
    if not 1 <= num_atoms <= MAX_ATOMS:
        raise ValueError(f"num_atoms must lie in [1, {MAX_ATOMS}], got {num_atoms}")
    row = operator.index(row)
    if row < 0:  # PCG64.advance would step backwards without complaint
        raise ValueError(f"row must be >= 0, got {row}")
    if seed is None:  # default_rng(None) would draw fresh entropy
        raise TypeError("seed must be an int or a sequence of ints, got None")
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(2 * num_atoms * row)
    weights, angles = _sample_rows(rng, 1, num_atoms)
    return HerglotzMeasure(weights[0], angles[0])


def _sample_rows(rng: np.random.Generator, rows: int, atoms: int) -> tuple[np.ndarray, np.ndarray]:
    """The next `rows` measures of `rng` as (rows x atoms) weights and angles:
    a row takes 2 * atoms doubles u of ``rng.random`` (one 64-bit output
    each); exponentials -log1p(-u) scaled by 1 / (their sum) make the
    Dirichlet(1, ..., 1) weights, and 2 pi u the angles."""
    u = rng.random((rows, 2 * atoms))
    exponentials = -np.log1p(-u[:, :atoms])
    # cumsum adds strictly from the left, so a row's sum does not depend on
    # how many rows are drawn together (a pairwise sum would, from 8 atoms).
    total = np.cumsum(exponentials, axis=1)[:, -1:]
    return exponentials * (1.0 / total), TWO_PI * u[:, atoms:]


def measure_to_caratheodory(mu: HerglotzMeasure, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Caratheodory coefficients c_0 = 1, c_n = 2 sum_j w_j e^{i n theta_j},
    n = 1..order."""
    return _caratheodory_rows(mu.weights[None], mu.angles[None], order)[0]


def _caratheodory_rows(weights: np.ndarray, angles: np.ndarray, order: int) -> np.ndarray:
    """Rows c_0..c_order of the measures with these weights and angles
    (rows x atoms), one row per measure.

    The terms 2 w_j z_j^n, z_j = e^{i theta_j}, go from one power to the
    next by one complex product each, and c_n is their row sum.  Both are
    entrywise or within a row, so a row's coefficients do not depend on
    the rows beside it or on how many rows are computed together (the
    sweep's blocks and a one-measure call give the same bits), and c_0..c_k
    do not depend on the order asked for.  The product is not taken in
    place: numpy multiplies a one-entry array in place by another route,
    whose bits differ, so a lone one-atom measure would round differently
    from the same measure in a block.
    """
    z = np.exp(1j * angles)
    term = 2.0 * weights
    c = np.empty((weights.shape[0], order + 1), dtype=complex)
    c[:, 0] = 1.0
    for n in range(1, order + 1):
        term = term * z
        c[:, n] = term.sum(axis=1)
    return c


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


@dataclass(frozen=True, eq=False)  # compared by identity, as HerglotzMeasure
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
    """Outcome of one inequality check: pass iff rhs - lhs >= -DEFAULT_SLACK."""

    inequality_id: str
    lhs: float
    rhs: float
    witness: str

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.margin >= -DEFAULT_SLACK


# A family of checks, built once per beta: the check ids, the witness, and
# evaluate(rows of member coefficients) -> (lhs, rhs), which broadcast to
# (rows x ids); check k holds on a row iff rhs - lhs >= -slack there.
_Family = tuple[list[str], str, Callable[[np.ndarray], tuple[np.ndarray, "np.ndarray | float"]]]


def _columns(*columns: "np.ndarray | float") -> np.ndarray:
    """Row vectors and scalars side by side as a (rows x columns) array."""
    return np.stack(np.broadcast_arrays(*columns), axis=1)


def _coefficient_family(beta: BetaParam, n_max: int) -> _Family:
    """|a_n| against the sharp coefficient bound, n = 2..n_max."""
    ns = range(2, n_max + 1)
    rhs = np.array([extremal_coeff(n, beta) for n in ns])
    ids = [f"coeff[n={n}]" for n in ns]
    return ids, f"beta={beta.value:g}", lambda a: (np.abs(a[:, 1:n_max]), rhs)


def _fs_and_log_family(beta: BetaParam) -> _Family:
    """Fekete-Szego over MU_GRID, then both logarithmic-difference ranges."""
    b = beta.value
    fs_bounds = [_bounds.fekete_szego_bound(mu, b) for mu in MU_GRID]
    lo, hi = _bounds.log_diff_bounds(b)
    lo_i, hi_i = _bounds.inverse_log_diff_bounds(b)
    ids = [f"fekete_szego[mu={mu:g}]" for mu in MU_GRID]
    ids += [f"{log}_diff_{side}" for log in ("log", "inverse_log") for side in ("upper", "lower")]

    def evaluate(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        a2, a3 = a[:, 1], a[:, 2]
        gamma = _bounds.log_coeffs(a2, a3).moduli_difference
        inv = _bounds.inverse_log_coeffs(a2, a3).moduli_difference
        fs = (_bounds.fekete_szego_functional(a2, a3, mu) for mu in MU_GRID)
        lhs = _columns(*fs, gamma, lo, inv, lo_i)
        return lhs, _columns(*fs_bounds, hi, gamma, hi_i, inv)

    return ids, f"beta={b:g}", evaluate


def _normalized_area_rows(a: np.ndarray, r: float) -> np.ndarray:
    """S_r/pi = sum n |a_n|^2 r^{2n} of each row of member coefficients."""
    n = np.arange(1, a.shape[1] + 1, dtype=float)
    return np.sum(n * np.abs(a) ** 2 * (r * r) ** n, axis=1)


def _truncation(beta: BetaParam, order: int, r: float) -> tuple[int, float]:
    """(k, tail): the least k <= order whose bound tail on sum_{n > k + 1} |a_n| r^n,
    via the sharp coefficients, is <= _TAIL, or k = order if its tail is <= 1e-9."""
    for k in range(order + 1):
        tail = extremal_coeff(k + 2, beta) * r ** (k + 2) / (1.0 - r)
        if tail <= _TAIL or (k == order and tail <= 1e-9):
            return k, tail
    raise ValueError(f"truncation order {order} cannot certify the majorant at r = {r}")


def _area_tail(beta: BetaParam, n0: int, r: float) -> float:
    """Bound on sum_{n >= n0} n |a_n|^2 rho^n, rho = r^2: |a_n| <= extremal_coeff(n), which
    decreases from n0 >= 2 on, and sum_{n >= n0} n rho^n = rho^n0 (n0 - (n0-1) rho) / (1-rho)^2."""
    rho = r * r
    return extremal_coeff(n0, beta) ** 2 * rho**n0 * (n0 - (n0 - 1) * rho) / (1.0 - rho) ** 2


def _radius_family(problem: RadiusProblem, order: int, r: float) -> _Family:
    """The problem's majorant at |z| = r with w_n(z) = z^n against its level.

    The radius equation's three terms come from the problem: the majorant
    of rows of member coefficients is lead(r) + sum_{n >= start} |a_n| r^n +
    F(S_r/pi), both sums to n = k + 1 (k from _truncation) plus their
    certified tails; it must stay below level = -f(-1).  Coefficients past
    a_{k+1} are not read.  A lead beyond the largest double reads +inf and
    fails.
    """
    lead = problem.lead(r)
    beta, m, p, F = problem.beta, problem.m, problem.p, problem.F
    k, tail = _truncation(beta, order, r)
    start, level = problem.start, problem.level
    powers = r ** np.arange(start, k + 2, dtype=float)
    area_tail = _area_tail(beta, k + 2, r)

    def evaluate(a: np.ndarray) -> tuple[np.ndarray, float]:
        body = np.sum(np.abs(a[:, start - 1 : k + 1]) * powers, axis=1)
        value = lead + (body + tail)
        if not F.is_zero:  # F(S_r/pi) = 0 otherwise: the area is not needed
            value = value + F(_normalized_area_rows(a[:, : k + 1], r) + area_tail)
        return value[:, None], level

    check_id = f"{problem.variant.value}[beta={beta.value:g},m={m},p={p:g},N={problem.N}]"
    return [check_id], f"r={r!r}, mode=monomial", evaluate


def _reports(family: _Family, member: ClassMember) -> list[BoundReport]:
    """One report per check of the family on the member's single row."""
    ids, witness, evaluate = family
    lhs, rhs = np.broadcast_arrays(*evaluate(member.a[None]))
    checks = zip(ids, lhs[0].tolist(), rhs[0].tolist())
    return [BoundReport(check_id, l, r, witness) for check_id, l, r in checks]


def check_bohr(member: ClassMember, problem: RadiusProblem, at: float) -> BoundReport:
    """Compare the problem's majorant at radius `at` against -f(-1).

    -f(-1) is the proven lower bound for the distance from the origin to
    the image boundary, which is exactly the level the majorant is
    guaranteed to stay below inside the radius.  `at` must lie in (0, 1)
    and the member must share the problem's beta.
    """
    if member.beta != problem.beta:
        raise ValueError(f"member beta {member.beta.value} != problem beta {problem.beta.value}")
    return _reports(_radius_family(problem, member.order, at), member)[0]


def check_coefficient_bounds(member: ClassMember, n_max: int) -> list[BoundReport]:
    """|a_n| against the sharp coefficient bound, one report per n in [2, n_max]."""
    if n_max > member.a.size:
        raise ValueError(f"n_max = {n_max} exceeds truncation order {member.order}")
    return _reports(_coefficient_family(member.beta, n_max), member)


def check_fs_and_log_bounds(member: ClassMember) -> list[BoundReport]:
    """Fekete-Szego over MU_GRID plus both logarithmic-difference ranges."""
    return _reports(_fs_and_log_family(member.beta), member)


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
        if self.samples > MAX_SAMPLES:
            raise ValueError(f"samples: must be <= {MAX_SAMPLES}, got {self.samples}")
        if self.atoms < 1:
            raise ValueError(f"atoms: must be >= 1, got {self.atoms}")
        if self.atoms > MAX_ATOMS:
            raise ValueError(f"atoms: must be <= {MAX_ATOMS}, got {self.atoms}")
        if self.samples > (cap := MAX_SAMPLE_ATOMS // self.atoms):
            raise ValueError(f"samples: must be <= {cap} at {self.atoms} atoms, got {self.samples}")
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


def _fold_block(
    worst: dict[str, list], ids: list[str], violation: np.ndarray, witness: str, rows: range
) -> None:
    """Fold a (samples x ids) block of lhs - rhs into the running records.

    argmax returns the first of equal maxima and a later block replaces a
    record only when strictly worse, so each witness is the first sample
    that attains the maximum.
    """
    worst_rows = np.argmax(violation, axis=0)
    worst_values = violation[worst_rows, np.arange(len(ids))].tolist()
    for check_id, k, value in zip(ids, worst_rows.tolist(), worst_values):
        record = worst.get(check_id)
        if record is None or value > record[0]:
            checks = len(rows) + (record[2] if record else 0)
            worst[check_id] = [value, f"{witness}, row={rows[k]}", checks]
        else:
            record[2] += len(rows)


def falsification_sweep(
    beta_grid: "tuple[float, ...] | list[float]",
    config: VerifyConfig = VerifyConfig(),
) -> SweepSummary:
    """Maximize lhs - rhs of every inequality over sampled members.

    Grid entry gi draws its samples, block by block, from one generator
    ``np.random.default_rng([config.seed, gi])``, and sample si is row si
    of that stream whatever the block size: each witness ends in
    ``seed=[S, gi], row=si``, and ``sample_measure(config.atoms, [S, gi],
    si)`` rebuilds its measure.  Records are merged in grid order, so
    identical inputs produce identical summaries.  Each inequality family
    is built once per beta and evaluated on blocks of members: one array
    expression per family and block.  Members are built only to the order
    the families read: a_{N_MAX}, and each radius sum's certified order.
    """
    if len(beta_grid) == 0:
        raise ValueError("beta_grid: must hold at least one beta")
    worst: dict[str, list] = {}  # id -> [max violation, witness, checks]
    for gi, beta in enumerate(beta_grid):
        bp = BetaParam(float(beta))
        families = [_coefficient_family(bp, N_MAX), _fs_and_log_family(bp)]
        order = N_MAX - 1  # the coefficient family reads a_2..a_{N_MAX}
        for problem in (
            RadiusProblem(Variant.BOHR_SCHWARZ, bp, m=1, p=1.0),
            RadiusProblem(Variant.BOHR_ROGOSINSKI, bp, m=1, p=1.0, N=ROGOSINSKI_N),
        ):
            try:
                root = solve_radius(problem).root
            except BracketError as exc:
                reason = f"no {problem.variant.value} radius at the default tol"
                raise BracketError(f"beta = {bp.value!r}: {reason}: {exc}") from exc
            # Just inside the root; half of it for roots below twice the offset.
            at = root - min(RADIUS_OFFSET, 0.5 * root)
            families.append(_radius_family(problem, DEFAULT_ORDER, at))
            order = max(order, _truncation(bp, DEFAULT_ORDER, at)[0])
        rng = np.random.default_rng([config.seed, gi])
        block = max(1, _BLOCK_ENTRIES // config.atoms)
        for start in range(0, config.samples, block):
            rows = range(start, min(start + block, config.samples))
            c = _caratheodory_rows(*_sample_rows(rng, len(rows), config.atoms), order)
            a = caratheodory_to_member(c, bp)
            for ids, witness, evaluate in families:
                lhs, rhs = evaluate(a)
                _fold_block(worst, ids, lhs - rhs, f"{witness}, seed=[{config.seed}, {gi}]", rows)
    records = tuple(
        InequalityRecord(check_id, v, w, n) for check_id, (v, w, n) in worst.items()
    )
    return SweepSummary(slack=config.slack, records=records)
