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
from typing import Callable, Iterator, Sequence

import numpy as np

from . import bounds as _bounds
from .extremal import (
    BetaParam,
    beta_value,
    eval_extremal,  # unused here; bench/tracing.py wraps it under this name
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

# Most atoms a sampled measure may have: each sample's Herglotz product
# builds DEFAULT_ORDER x atoms complex values (16 bytes each), about 10 MB at
# this bound, and far more atoms would fail in numpy's allocator instead.
MAX_ATOMS = 10_000

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


def sample_measure(num_atoms: int, seed: int) -> HerglotzMeasure:
    """Deterministic random measure: simplex-uniform weights, uniform angles.

    The draws are those of ``rng = np.random.default_rng(seed)``, bit for
    bit: ``rng.dirichlet(np.ones(num_atoms))``, then
    ``rng.uniform(0, 2 pi, num_atoms)``.
    """
    if num_atoms < 1:
        raise ValueError(f"num_atoms must be >= 1, got {num_atoms}")
    seed = operator.index(seed)  # numpy integers too, as default_rng takes them
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    weights, angles = _sample_rows(num_atoms, [seed])
    return HerglotzMeasure(weights[0], angles[0])


# numpy's SeedSequence (pool of 4 uint32 words) and PCG64 constants.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int) -> Iterator[tuple[int, int]]:
    """SeedSequence's hash constants, step by step: (before, after) the
    multiply.  They depend on the step alone, not on the entropy."""
    while True:
        after = init * mult & _MASK32
        yield init, after
        init = after


def _hashmix(value: np.ndarray, constants: Iterator[tuple[int, int]], steps: int) -> np.ndarray:
    """SeedSequence's hashmix of `value` at each of the next `steps` hash
    steps: row k of the result is hashed with the constants of step k."""
    before, after = np.array([next(constants) for _ in range(steps)], dtype=np.uint32).T
    value = (value ^ before[:, None]) * after[:, None]
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return result ^ (result >> np.uint32(16))


def _pcg64_states(seeds: Sequence[int]) -> list[tuple[int, int]]:
    """(state, inc) of ``np.random.PCG64(seed)`` for each seed.

    Runs SeedSequence's pool mixing and ``generate_state(4, uint64)`` on all
    seeds at once, on (words x seeds) uint32 arrays.  Seeds below 2**128
    hash each missing entropy word as numpy does, like a zero word; the
    extra words of longer seeds are mixed in only on their own columns.
    """
    words = max(_POOL_SIZE, -(-max(seeds).bit_length() // 32))
    entropy = b"".join(s.to_bytes(4 * words, "little") for s in seeds)
    entropy = np.frombuffer(entropy, dtype="<u4").reshape(len(seeds), words).T
    constants = _hash_constants(_INIT_A, _MULT_A)
    pool = _hashmix(entropy[:_POOL_SIZE], constants, _POOL_SIZE)
    for src in range(_POOL_SIZE):
        # The other pool words, in order, each mixed with pool[src] hashed
        # at its own step; pool[src] itself does not change meanwhile.
        dst = [k for k in range(_POOL_SIZE) if k != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], constants, _POOL_SIZE - 1))
    for extra in range(_POOL_SIZE, words):
        has_word = entropy[extra:].any(axis=0)  # seeds with a word `extra`
        mixed = _mix(pool, _hashmix(entropy[extra], constants, _POOL_SIZE))
        pool = np.where(has_word, mixed, pool)
    out = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _hash_constants(_INIT_B, _MULT_B), 8)
    # generate_state(4, uint64) joins the word pairs little-endian; PCG64
    # seeds with initstate = (v0, v1) and initseq = (v2, v3), high first.
    out = out.astype(np.uint64)
    states = []
    for v0, v1, v2, v3 in (out[0::2] | out[1::2] << np.uint64(32)).T.tolist():
        inc = ((v2 << 64 | v3) << 1 | 1) & _MASK128
        states.append((((inc + (v0 << 64 | v1)) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


def _sample_rows(atoms: int, seeds: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Weights and angles (rows x atoms) of the measures of `seeds`.

    One generator is set to each seed's PCG64 state in turn.  With all-ones
    alpha, ``dirichlet`` draws standard_gamma(1), which is the standard
    exponential, and multiplies by 1 / (their sum from the left);
    ``uniform(0, 2 pi)`` is 2 pi times ``random``.
    """
    generator = np.random.Generator(np.random.PCG64(0))
    exponentials = np.empty((len(seeds), atoms))
    uniforms = np.empty((len(seeds), atoms))
    state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}
    for row, (s, inc) in enumerate(_pcg64_states(seeds)):
        state["state"] = {"state": s, "inc": inc}
        generator.bit_generator.state = state
        generator.standard_exponential(out=exponentials[row])
        generator.random(out=uniforms[row])
    # cumsum adds strictly from the left, as dirichlet's loop does.
    total = np.cumsum(exponentials, axis=1)[:, -1:]
    return exponentials * (1.0 / total), TWO_PI * uniforms


def measure_to_caratheodory(mu: HerglotzMeasure, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Caratheodory coefficients c_0 = 1, c_n = 2 sum_j w_j e^{i n theta_j},
    n = 1..order."""
    return _caratheodory_rows(mu.weights[None], mu.angles[None], order)[0]


# Complex entries of the (rows x order x atoms) exponentials built at once:
# a 64-sample block of the default sweep (order 64, 4 atoms) in one piece,
# and bounded for large atom counts.
_PRODUCT_ENTRIES = 1 << 14


def _caratheodory_rows(weights: np.ndarray, angles: np.ndarray, order: int) -> np.ndarray:
    """Rows c_0..c_order of the measures with these weights and angles
    (rows x atoms), one row per measure.

    Each row is its own matrix-vector product, so a row's coefficients do
    not depend on the rows beside it or on how many rows are computed
    together: the sweep's blocks and a one-measure call give the same bits.
    """
    rows, atoms = weights.shape
    n = np.arange(1, order + 1, dtype=float)[:, None]
    step = max(1, _PRODUCT_ENTRIES // (order * atoms))
    c = np.empty((rows, order + 1), dtype=complex)
    c[:, 0] = 1.0
    for start in range(0, rows, step):
        w, t = weights[start : start + step], angles[start : start + step]
        product = np.exp(1j * (n * t[:, None, :])) @ w[..., None]
        c[start : start + step, 1:] = 2.0 * product[..., 0]
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
    return ids, f"beta={beta.value:g}", lambda a: (_bounds.complex_modulus(a[:, 1:n_max]), rhs)


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


def _coefficient_tail_bound(beta: BetaParam, order: int, r: float) -> float:
    """Certified bound on sum_{n > order + 1} |a_n| r^n via the sharp coefficients."""
    n0 = order + 2
    tail = extremal_coeff(n0, beta) * r ** n0 / (1.0 - r)
    if tail > 1e-9:
        raise ValueError(f"truncation order {order} cannot certify the majorant at r = {r}")
    return tail


def _radius_family(problem: RadiusProblem, order: int, r: float) -> _Family:
    """The problem's Bohr (sum from n = 2) or Bohr-Rogosinski (sum from n = N)
    majorant at |z| = r with w_n(z) = z^n against the level -f(-1).

    The majorant of rows of member coefficients a_1..a_{order+1} is
    lead + sum_n |a_n| r^n + tail + F(S_r/pi), where tail bounds the terms
    beyond the truncation order.  The lead is the radius equation's,
    RadiusProblem.lead: r^{mp}, or the sharp growth bound f(r^m)^p, which
    reads +inf beyond the largest double and so fails the check.
    """
    lead = problem.lead(r)
    beta, m, p, F = problem.beta, problem.m, problem.p, problem.F
    tail = _coefficient_tail_bound(beta, order, r)
    start = 2 if problem.variant is Variant.BOHR_SCHWARZ else problem.N
    powers = r ** np.arange(start, order + 2, dtype=float)
    level = -extremal_at_minus_one(beta)

    def evaluate(a: np.ndarray) -> tuple[np.ndarray, float]:
        body = np.sum(np.abs(a[:, start - 1 :]) * powers, axis=1)
        value = lead + (body + tail)
        if not F.is_zero:  # F(S_r/pi) = 0 otherwise: the area is not needed
            value = value + F(_normalized_area_rows(a, r))
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
        if self.atoms < 1:
            raise ValueError(f"atoms: must be >= 1, got {self.atoms}")
        if self.atoms > MAX_ATOMS:
            raise ValueError(f"atoms: must be <= {MAX_ATOMS}, got {self.atoms}")
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
    produce identical summaries.  Each inequality family is built once per
    beta and evaluated on blocks of members: one array expression per
    family and block.
    """
    if len(beta_grid) == 0:
        raise ValueError("beta_grid: must hold at least one beta")
    worst: dict[str, list] = {}  # id -> [max violation, witness, checks]
    for gi, beta in enumerate(beta_grid):
        bp = BetaParam(float(beta))
        families = [_coefficient_family(bp, N_MAX), _fs_and_log_family(bp)]
        for problem in (
            RadiusProblem(Variant.BOHR_SCHWARZ, bp, m=1, p=1.0),
            RadiusProblem(Variant.BOHR_ROGOSINSKI, bp, m=1, p=1.0, N=ROGOSINSKI_N),
        ):
            # Just inside the root; half of it for roots below twice the offset.
            root = solve_radius(problem).root
            at = root - min(RADIUS_OFFSET, 0.5 * root)
            families.append(_radius_family(problem, DEFAULT_ORDER, at))
        first_seed = config.seed * 1_000_003 + gi * 100_003
        for start in range(0, config.samples, _BLOCK):
            seeds = range(first_seed + start, first_seed + min(start + _BLOCK, config.samples))
            c = _caratheodory_rows(*_sample_rows(config.atoms, seeds), DEFAULT_ORDER)
            a = caratheodory_to_member(c, bp)
            for ids, witness, evaluate in families:
                lhs, rhs = evaluate(a)
                _fold_block(worst, ids, lhs - rhs, witness, seeds)
    records = tuple(
        InequalityRecord(check_id, v, w, n) for check_id, (v, w, n) in worst.items()
    )
    return SweepSummary(slack=config.slack, records=records)
