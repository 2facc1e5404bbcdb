import dataclasses
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abeta.radii
import abeta.verify
from abeta.bounds import (
    LogCoeffPair,
    fekete_szego_bound,
    inverse_log_coeffs,
    inverse_log_diff_bounds,
    log_coeffs,
    log_diff_bounds,
)
from abeta.extremal import BetaParam, eval_extremal, extremal_at_minus_one, extremal_coeff
from abeta.radii import ZERO_POLYNOMIAL, AreaPolynomial, RadiusProblem, Variant, solve_radius
from abeta.verify import (
    _BLOCK_ENTRIES,
    _TAIL,
    DEFAULT_ORDER,
    MAX_ATOMS,
    MAX_SAMPLES,
    MU_GRID,
    N_MAX,
    RADIUS_OFFSET,
    ROGOSINSKI_N,
    BoundReport,
    ClassMember,
    HerglotzMeasure,
    VerifyConfig,
    _area_tail,
    _caratheodory_rows,
    _sample_rows,
    _truncation,
    check_bohr,
    check_coefficient_bounds,
    check_fs_and_log_bounds,
    falsification_sweep,
    measure_to_caratheodory,
    sample_measure,
)
from oracles import (
    generator_real_part,
    identity_member,
    normalized_area,
    reference_caratheodory,
    reference_sample_measure,
    series_div,
)


def bohr_lhs(member, r, F=ZERO_POLYNOMIAL):
    """The Bohr majorant (m = p = 1) of the member at r."""
    problem = RadiusProblem(Variant.BOHR_SCHWARZ, member.beta, F=F)
    return check_bohr(member, problem, r).lhs


class TestHerglotzMeasure:
    def test_point_mass_coefficients(self):
        c = measure_to_caratheodory(HerglotzMeasure.point_mass(), order=10)
        assert np.allclose(c[1:], 2.0)

    def test_two_atom_pm_coefficients(self):
        c = measure_to_caratheodory(HerglotzMeasure.two_atom_pm(), order=6)
        assert np.allclose(c, [1, 0, 2, 0, 2, 0, 2], atol=1e-14)

    def test_sampling_determinism(self):
        a = sample_measure(5, seed=42)
        b = sample_measure(5, seed=42)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.angles, b.angles)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            HerglotzMeasure(np.array([0.4, 0.4]), np.array([0.0, 1.0]))
        # Non-finite atoms once built members whose checks read nan.
        for weights, angles in (
            ([math.nan], [0.0]), ([1.0], [math.inf]), ([0.5, 0.5], [0.0, math.nan])
        ):
            with pytest.raises(ValueError, match="finite"):
                HerglotzMeasure(np.array(weights), np.array(angles))
        with pytest.raises(ValueError):
            sample_measure(0, seed=1)
        with pytest.raises(ValueError):
            sample_measure(1, seed=-1)
        with pytest.raises(TypeError):
            sample_measure(1, seed=1.5)
        # PCG64.advance takes a negative step without complaint, and 10**13
        # atoms once ended in numpy's allocator.
        for num_atoms, row in ((1, -1), (0, 0), (MAX_ATOMS + 1, 0), (10**13, 0)):
            with pytest.raises(ValueError, match="^(row|num_atoms) must"):
                sample_measure(num_atoms, [1, 2], row)

    def test_numpy_integer_seed(self):
        mu = sample_measure(3, seed=np.uint64(2**63 + 5))
        assert np.array_equal(mu.angles, sample_measure(3, seed=2**63 + 5).angles)

    @pytest.mark.parametrize("atoms", [1, 4, 8])
    def test_sampled_measures_need_no_revalidation(self, atoms):
        # Validating a sampled measure again must neither fail nor change
        # a bit.
        for seed in range(200):
            mu = sample_measure(atoms, seed)
            checked = HerglotzMeasure(mu.weights, mu.angles)
            assert np.array_equal(checked.weights, mu.weights)
            assert np.array_equal(checked.angles, mu.angles)
            assert mu.weights.dtype == mu.angles.dtype == np.float64

    @pytest.mark.parametrize("seed", [0, 7, 2**64 + 3])
    def test_largest_measures_pass_validation_unchanged(self, seed):
        # The constructor's weight-sum check holds at the most atoms, and
        # % 2pi leaves the drawn angles as they are.
        mu = sample_measure(MAX_ATOMS, seed)
        weights, angles = _sample_rows(np.random.default_rng(seed), 1, MAX_ATOMS)
        assert _bits(mu.weights) == _bits(weights[0])
        assert _bits(mu.angles) == _bits(angles[0])

    @given(
        atoms=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_caratheodory_coefficient_bound(self, atoms, seed):
        mu = sample_measure(atoms, seed)
        c = measure_to_caratheodory(mu, order=40)
        assert np.max(np.abs(c[1:])) <= 2.0 + 1e-14


def _bits(x):
    return np.ascontiguousarray(x).tobytes()


# Seeds of the stream: plain ints and the sweep's [S, gi] lists, across the
# 1-, 2-, 4- and 5-word entropy boundaries of numpy's SeedSequence, up to
# ~2**200 (7 words).
STREAM_SEEDS = [0, [7, 0], [2**32 - 1, 2], 2**64 + 3, [2**128 + 9, 1], [2**200, 0]]


class TestBlockSampler:
    @pytest.mark.parametrize("atoms", range(1, 9))
    def test_draws_are_default_rng_bit_for_bit(self, atoms):
        # Blocks of 1, 63 and 66 rows continue one stream: row k is the
        # reference's row k whatever block it falls in, and sample_measure
        # reaches it by advancing.
        for seed in STREAM_SEEDS:
            rng = np.random.default_rng(seed)
            blocks = [_sample_rows(rng, rows, atoms) for rows in (1, 63, 66)]
            weights = np.concatenate([w for w, _ in blocks])
            angles = np.concatenate([t for _, t in blocks])
            for row in (0, 1, 63, 64, 65, 129):
                mu = reference_sample_measure(atoms, seed, row)
                assert _bits(weights[row]) == _bits(mu.weights)
                assert _bits(angles[row]) == _bits(mu.angles)
                rebuilt = sample_measure(atoms, seed, row)
                assert _bits(rebuilt.weights) == _bits(mu.weights)
                assert _bits(rebuilt.angles) == _bits(mu.angles)

    @given(
        atoms=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**200)
        | st.lists(st.integers(min_value=0, max_value=2**200), min_size=1, max_size=3),
        rows=st.integers(min_value=1, max_value=3 * _BLOCK_ENTRIES),
        split=st.integers(min_value=0, max_value=3 * _BLOCK_ENTRIES),
    )
    @settings(max_examples=30, deadline=None)
    def test_any_seed_list_matches_the_reference(self, atoms, seed, rows, split):
        # Two blocks of one stream, split anywhere: every row, including
        # rows past the sweep's first block, is the reference's.
        rng = np.random.default_rng(seed)
        split = min(split, rows)
        blocks = [_sample_rows(rng, n, atoms) for n in (split, rows - split)]
        weights = np.concatenate([w for w, _ in blocks])
        angles = np.concatenate([t for _, t in blocks])
        for row in {0, split - 1, split, rows - 1} & set(range(rows)):
            mu = reference_sample_measure(atoms, seed, row)
            assert _bits(weights[row]) == _bits(mu.weights)
            assert _bits(angles[row]) == _bits(mu.angles)
            assert _bits(sample_measure(atoms, seed, row).weights) == _bits(mu.weights)

    @pytest.mark.parametrize("atoms", [1, 2, 3, 4, 5, 7, 8, 9, 12, 100, 300])
    def test_block_rows_equal_the_one_measure_product(self, atoms):
        # Block sizes put each row at several positions inside numpy's
        # vector loops, which run over all rows x atoms entries at once.
        #
        # The reference differs from the recurrence by rounding only.  With
        # u = 2^-53 and the exact terms x_j = 2 w_j e^{i n theta_j}, whose
        # moduli sum to 2: the recurrence's z_j = e^{i theta_j} is within 2u
        # (cos and sin each within one ulp), and each of its n complex
        # products adds at most sqrt(5) u (Brent, Percival and Zimmermann
        # 2007), so each term is within (2 + sqrt(5)) n u |x_j|.  The
        # reference rounds n theta_j < 2 pi n by at most 2 pi n u, then
        # rounds the exponential (2u) and the product by w_j (sqrt(5) u),
        # so each of its terms is within (2 pi n + 2 + sqrt(5)) u |x_j|.
        # Either sum of atoms terms adds at most (atoms - 1) u sum_j |x_j|
        # in any order (Higham, Accuracy and Stability, section 4.2, on the
        # real and imaginary parts; Minkowski's inequality joins them).
        # Together, to first order in u:
        # |c_n - ref_n| <= 2u (10.52 n + 2 atoms + 2.24) <= 2u (11 n + 2 atoms + 3).
        seed = [2**64 - 40, 3]
        n = np.arange(1, DEFAULT_ORDER + 1)
        bound = 2.0**-52 * (11 * n + 2 * atoms + 3)
        for rows in (1, 2, 7, 9, 17, 80):
            weights, angles = _sample_rows(np.random.default_rng(seed), rows, atoms)
            c = _caratheodory_rows(weights, angles, DEFAULT_ORDER)[:, 1:]
            for row in range(rows):
                mu = sample_measure(atoms, seed, row)
                assert _bits(c[row]) == _bits(measure_to_caratheodory(mu)[1:]), (rows, row)
                assert np.all(np.abs(c[row] - reference_caratheodory(mu)) <= bound), (rows, row)

    @given(
        atoms=st.integers(min_value=1, max_value=8),
        rows=st.integers(min_value=1, max_value=70),
        k=st.integers(min_value=N_MAX - 1, max_value=DEFAULT_ORDER),
        seed=st.integers(min_value=0, max_value=2**64),
    )
    @settings(max_examples=50, deadline=None)
    def test_lower_orders_are_prefixes_bit_for_bit(self, atoms, rows, k, seed):
        # The sweep builds members only to its per-beta order; a witness
        # rebuilt at DEFAULT_ORDER must hold the same c_1..c_k.
        weights, angles = _sample_rows(np.random.default_rng(seed), rows, atoms)
        full = _caratheodory_rows(weights, angles, DEFAULT_ORDER)
        assert _bits(_caratheodory_rows(weights, angles, k)) == _bits(full[:, : k + 1])

    @pytest.mark.parametrize("atoms", [1, 2, 4, 8])
    def test_every_order_from_zero_is_a_prefix_bit_for_bit(self, atoms):
        # Orders 0 and 1 included: each order stops the same recurrence
        # earlier, whatever the number of rows.
        for seed, rows in enumerate([1, 2, 5, 33, 70]):
            weights, angles = _sample_rows(np.random.default_rng([seed, atoms]), rows, atoms)
            full = _caratheodory_rows(weights, angles, DEFAULT_ORDER)
            for k in range(DEFAULT_ORDER + 1):
                part = _caratheodory_rows(weights, angles, k)
                assert _bits(part) == _bits(full[:, : k + 1]), (rows, k)

    @pytest.mark.parametrize("block", [1, 7, 64, 1024, 5000])
    def test_block_size_does_not_change_the_summary(self, monkeypatch, block):
        cases = [
            ([0.0, 0.5], VerifyConfig(samples=150, atoms=5, seed=13)),
            # Past the default block; numpy sums 9 terms pairwise.
            ([0.5], VerifyConfig(samples=1100, atoms=9, seed=13)),
            # 300 atoms: numpy's pairwise row sum splits each row in halves.
            ([0.5], VerifyConfig(samples=150, atoms=300, seed=13)),
        ]
        expected = [falsification_sweep(beta_grid, config) for beta_grid, config in cases]
        monkeypatch.setattr(abeta.verify, "_BLOCK_ENTRIES", block)
        for (beta_grid, config), summary in zip(cases, expected):
            assert falsification_sweep(beta_grid, config) == summary, config


class TestClassMember:
    def test_extremal_member_coefficients(self):
        member = ClassMember.extremal(0.4, order=12)
        for n in range(1, 13):
            assert abs(member.a[n - 1]) == pytest.approx(
                extremal_coeff(n, 0.4), abs=1e-14
            )

    def test_identity_member(self):
        member = identity_member(0.2, order=8)
        assert member.a[0] == 1
        assert np.allclose(member.a[1:], 0)

    @given(
        atoms=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=5_000),
        beta=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_generator_positivity(self, atoms, seed, beta):
        # Re(beta f/z + (1-beta) f') = Re p > 0 holds exactly by
        # construction; the truncated evaluation gets a small slack.
        mu = sample_measure(atoms, seed)
        member = ClassMember.from_measure(mu, beta, order=96)
        rng = np.random.default_rng(seed + 1)
        zs = 0.9 * np.sqrt(rng.uniform(0, 1, 64)) * np.exp(
            1j * rng.uniform(0, 2 * math.pi, 64)
        )
        for z in zs:
            assert generator_real_part(member, complex(z)) > -1e-8

    def test_array_holding_values_compare_by_identity(self):
        # == on the numpy fields once raised ValueError, hash TypeError.
        member = ClassMember.extremal(0.3)
        assert member == member and member != ClassMember.extremal(0.3)
        assert len({member, HerglotzMeasure.two_atom_pm(), HerglotzMeasure.point_mass()}) == 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            member.a = np.zeros(3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            HerglotzMeasure.point_mass().weights = np.ones(1)
        # Scalar-only values keep their value equality.
        assert LogCoeffPair(0.5, 0.25) == LogCoeffPair(0.5, 0.25)


class TestSums:
    def test_identity_member_sum(self):
        member = identity_member(0.0)
        # No higher coefficients and F = 0: only the leading monomial is left.
        for r in (0.1, 0.3, 0.6):
            assert bohr_lhs(member, r) == pytest.approx(r, abs=1e-12)
            F = AreaPolynomial((1.0,))
            assert bohr_lhs(member, r, F) == pytest.approx(r + r * r, abs=1e-12)

    def test_normalized_area_brute_force(self):
        member = ClassMember.extremal(0.0, order=48)
        r = 0.4
        brute = sum(
            n * abs(member.a[n - 1]) ** 2 * r ** (2 * n)
            for n in range(1, member.a.size + 1)
        )
        assert normalized_area(member, r) == pytest.approx(brute, abs=1e-14)


class TestChecks:
    def test_extremal_attains_bohr_radius(self):
        beta = 0.25
        problem = RadiusProblem(Variant.BOHR_SCHWARZ, BetaParam(beta), m=1, p=1.0)
        root = solve_radius(problem).root
        member = ClassMember.extremal(beta, order=96)
        at_root = bohr_lhs(member, root)
        assert at_root == pytest.approx(-extremal_at_minus_one(beta), abs=1e-6)
        # Just above the radius the sharp member violates the bound.
        beyond = check_bohr(member, problem, root + 1e-3)
        assert not beyond.passed
        inside = check_bohr(member, problem, root - 1e-3)
        assert inside.passed

    def test_rogosinski_margin_at_root(self):
        beta = 0.0
        problem = RadiusProblem(
            Variant.BOHR_ROGOSINSKI, BetaParam(beta), m=1, p=1.0, N=2
        )
        root = solve_radius(problem).root
        member = ClassMember.extremal(beta, order=96)
        report = check_bohr(member, problem, root)
        assert abs(report.margin) <= 1e-6

    def test_random_members_pass_inside_radius(self):
        beta = 0.5
        problem = RadiusProblem(Variant.BOHR_SCHWARZ, BetaParam(beta), m=1, p=1.0)
        at = solve_radius(problem).root - 1e-3
        for seed in range(50):
            member = ClassMember.from_measure(sample_measure(4, seed), beta)
            assert check_bohr(member, problem, at).passed

    def test_coefficient_reports(self):
        member = ClassMember.extremal(0.6, order=32)
        reports = check_coefficient_bounds(member, n_max=20)
        assert len(reports) == 19
        assert all(abs(r.margin) <= 1e-12 for r in reports)  # equality case
        identity = identity_member(0.6, order=32)
        for rep in check_coefficient_bounds(identity, n_max=10):
            assert rep.margin == pytest.approx(rep.rhs)

    def test_fs_and_log_reports(self):
        member = ClassMember.from_measure(HerglotzMeasure.two_atom_pm(), 0.0)
        reports = {r.inequality_id: r for r in check_fs_and_log_bounds(member)}
        fs = reports["fekete_szego[mu=1]"]
        assert fs.lhs == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert fs.margin == pytest.approx(0.0, abs=1e-9)
        up = reports["log_diff_upper"]
        assert up.margin == pytest.approx(0.0, abs=1e-9)
        assert all(r.passed for r in reports.values())

    def test_extremal_log_diff_value(self):
        member = ClassMember.extremal(0.0)
        reports = {r.inequality_id: r for r in check_fs_and_log_bounds(member)}
        # gamma2 - gamma1 moduli difference is 1/12 - 1/2 = -5/12.
        assert reports["log_diff_upper"].lhs == pytest.approx(-5.0 / 12.0, abs=1e-12)
        assert reports["log_diff_lower"].rhs == pytest.approx(-5.0 / 12.0, abs=1e-12)
        assert reports["log_diff_lower"].passed

    def test_bohr_rejects_a_member_of_another_beta(self):
        # The id and both sides once came from the member's beta alone.
        problem = RadiusProblem(Variant.BOHR_SCHWARZ, BetaParam(0.7), m=2)
        with pytest.raises(ValueError, match="beta"):
            check_bohr(ClassMember.extremal(0.2), problem, 0.3)

    @pytest.mark.parametrize("at", [0.0, 1.0, -0.1, math.nan])
    def test_bohr_rejects_a_radius_outside_the_unit_interval(self, at):
        problem = RadiusProblem(Variant.BOHR_SCHWARZ, BetaParam(0.3))
        with pytest.raises(ValueError, match="must lie in"):
            check_bohr(ClassMember.extremal(0.3), problem, at)

    def test_bohr_lead_is_the_radius_equations(self):
        # The check's lead r^{pm} once rounded differently from the
        # equation's, as (r^m)^p.
        beta, m, p = BetaParam(0.3), 3, 0.7
        problem = RadiusProblem(Variant.BOHR_SCHWARZ, beta, m=m, p=p)
        r = solve_radius(problem).root
        lhs = check_bohr(identity_member(beta, DEFAULT_ORDER), problem, r).lhs
        assert lhs == r ** (p * m) + (0.0 + _truncation(beta, DEFAULT_ORDER, r)[1])

    @given(
        variant=st.sampled_from(list(Variant)),
        beta=st.floats(min_value=0.0, max_value=0.9),
        m=st.integers(min_value=1, max_value=3),
        p=st.floats(min_value=0.25, max_value=4.0),
        N=st.sampled_from([1, 2, 3, 10]),
        lambdas=st.lists(st.floats(min_value=0.05, max_value=1.0), max_size=2),
        r=st.floats(min_value=0.05, max_value=0.6),
    )
    @settings(max_examples=100, deadline=None)
    def test_sharp_member_majorant_is_the_radius_equation(self, variant, beta, m, p, N, lambdas, r):
        # The check sums the member's |a_n| r^n from n = start, the equation
        # the extremal series as f(r) - hat_f(start, r); both take the lead,
        # the start and the level from the problem.
        F = AreaPolynomial(tuple(lambdas))
        problem = RadiusProblem(variant, BetaParam(beta), m=m, p=p, N=N, F=F)
        lhs = check_bohr(ClassMember.extremal(beta, order=128), problem, r).lhs
        assert lhs - problem.level == pytest.approx(problem.equation(r), abs=1e-11)

    def test_overflowing_rogosinski_lead_fails_the_check(self):
        # f(r^m)^p beyond the largest double reads +inf, as in the solver.
        problem = RadiusProblem(Variant.BOHR_ROGOSINSKI, BetaParam(0.9), p=3000.0)
        report = check_bohr(ClassMember.extremal(0.9), problem, 0.5)
        assert report.lhs == math.inf and not report.passed

    def test_bound_report_semantics(self):
        good = BoundReport("x", lhs=1.0, rhs=1.0 + 1e-12, witness="w")
        bad = BoundReport("x", lhs=1.0, rhs=1.0 - 1e-3, witness="w")
        assert good.passed and not bad.passed
        assert bad.margin == pytest.approx(-1e-3)


class TestSweep:
    def test_small_sweep_passes(self):
        summary = falsification_sweep([0.0, 0.5], VerifyConfig(samples=40, seed=7))
        assert summary.all_pass
        assert all(rec.max_violation <= 1e-9 for rec in summary.records)
        tags = {rec.inequality_id for rec in summary.records}
        assert any(t.startswith("coeff") for t in tags)
        assert any(t.startswith("fekete") for t in tags)
        assert any(t.startswith("bohr") for t in tags)
        assert any(t.startswith("rogosinski") for t in tags)

    def test_determinism(self):
        cfg = VerifyConfig(samples=15, atoms=3, seed=11)
        a = falsification_sweep([0.25], cfg)
        b = falsification_sweep([0.25], cfg)
        assert a == b

    def test_f_minus_one_once_per_radius_problem(self, monkeypatch):
        # The solver and the check share the problem's level; the check once
        # evaluated f(-1) again.
        calls = []

        def counted(beta):
            calls.append(beta)
            return extremal_at_minus_one(beta)

        for module in (abeta.radii, abeta.verify):
            monkeypatch.setattr(module, "extremal_at_minus_one", counted)
        falsification_sweep([0.0, 0.5, 0.9], VerifyConfig(samples=10, seed=1))
        assert len(calls) == 6

    def test_members_are_built_to_the_per_beta_order(self, monkeypatch):
        # Each beta's members reach the least order whose certified tail is
        # <= _TAIL at both radii, and at least a_{N_MAX}; not DEFAULT_ORDER.
        orders = []

        def counted(weights, angles, order):
            orders.append(order)
            return _caratheodory_rows(weights, angles, order)

        monkeypatch.setattr(abeta.verify, "_caratheodory_rows", counted)
        falsification_sweep([0.0, 0.5, 0.9], VerifyConfig(samples=10, seed=1))
        assert orders == [26, 19, 19]

    def test_empty_grid(self):
        # An empty grid checks nothing; it once reported all_pass.
        with pytest.raises(ValueError, match="^beta_grid: "):
            falsification_sweep([], VerifyConfig(samples=5))

    def test_radius_checks_kept_when_the_root_is_below_the_offset(self):
        # At beta = 0.999 the Bohr radius (5.0e-4) is below the 1e-3 offset:
        # the checks move to half the root instead of being dropped.
        config = VerifyConfig(samples=5, seed=1)
        summary = falsification_sweep([0.999], config)
        records = {rec.inequality_id: rec for rec in summary.records}
        for tag, N in (("bohr", 1), ("rogosinski", ROGOSINSKI_N)):
            rec = records[f"{tag}[beta=0.999,m=1,p=1,N={N}]"]
            assert rec.checks == config.samples
            root = solve_radius(
                RadiusProblem(Variant(tag), BetaParam(0.999), N=N)
            ).root
            assert root < RADIUS_OFFSET
            assert rec.witness.startswith(f"r={0.5 * root!r}, ")
        assert summary.all_pass


class TestLowerBoundExtremal:
    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_log_diff_lower_attained(self, beta):
        # The rational Caratheodory extremal of the lower bound, expanded
        # through series division.
        q = 2.0 * (2.0 - beta) / math.sqrt(5.0 - 6.0 * beta + 2.0 * beta * beta)
        num = np.array([1, 0, -1, 0, 0], dtype=complex)
        den = np.array([1, -q, 1, 0, 0], dtype=complex)
        p = series_div(num, den)
        member = ClassMember.from_caratheodory(p, beta)
        diff = log_coeffs(member.a2, member.a3).moduli_difference
        assert diff == pytest.approx(log_diff_bounds(beta)[0], abs=1e-6)

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_extremal_p_positivity_spot_check(self, beta):
        # Caratheodory membership of the rational extremal, checked on a
        # circle close to the boundary.
        q = 2.0 * (2.0 - beta) / math.sqrt(5.0 - 6.0 * beta + 2.0 * beta * beta)
        for theta in np.linspace(0, 2 * math.pi, 360, endpoint=False):
            z = 0.99 * np.exp(1j * theta)
            val = (1 - z * z) / (1 - q * z + z * z)
            assert val.real > -1e-12


def _oracle_sweep(beta_grid, config, order):
    """Scalar reference for falsification_sweep: one member at a time, drawn
    by numpy's own generator and checked in Python complex arithmetic,
    merged as the sweep documents (first sample attaining each maximum)."""
    worst = {}

    def merge(check_id, lhs, rhs, witness):
        violation = lhs - rhs
        prev = worst.get(check_id)
        if prev is None or violation > prev[0]:
            count = prev[2] if prev else 0
            worst[check_id] = [violation, witness, count + 1]
        else:
            prev[2] += 1

    for gi, beta in enumerate(beta_grid):
        bp = BetaParam(beta)
        radius_checks = []
        for variant, tag, N in (
            (Variant.BOHR_SCHWARZ, "bohr", 1),
            (Variant.BOHR_ROGOSINSKI, "rogosinski", ROGOSINSKI_N),
        ):
            root = solve_radius(RadiusProblem(variant, bp, m=1, p=1.0, N=N)).root
            at = root - min(RADIUS_OFFSET, 0.5 * root)
            check_id = f"{tag}[beta={beta:g},m=1,p=1,N={N}]"
            radius_checks.append((check_id, tag, N, at))
        for si in range(config.samples):
            seed = [config.seed, gi]
            mu = reference_sample_measure(config.atoms, seed, si)
            member = ClassMember.from_measure(mu, bp, order)
            a = [complex(x) for x in member.a]
            source = f"seed=[{config.seed}, {gi}], row={si}"
            witness = f"beta={beta:g}, {source}"
            for n in range(2, N_MAX + 1):
                merge(f"coeff[n={n}]", abs(a[n - 1]), extremal_coeff(n, bp), witness)
            a2, a3 = a[1], a[2]
            for mu in MU_GRID:
                merge(
                    f"fekete_szego[mu={mu:g}]",
                    abs(a3 - mu * a2 * a2),
                    fekete_szego_bound(mu, bp),
                    witness,
                )
            gamma = log_coeffs(a2, a3).moduli_difference
            inv = inverse_log_coeffs(a2, a3).moduli_difference
            lo, hi = log_diff_bounds(bp)
            lo_i, hi_i = inverse_log_diff_bounds(bp)
            merge("log_diff_upper", gamma, hi, witness)
            merge("log_diff_lower", lo, gamma, witness)
            merge("inverse_log_diff_upper", inv, hi_i, witness)
            merge("inverse_log_diff_lower", lo_i, inv, witness)
            for check_id, tag, N, at in radius_checks:
                start, lead = (2, at) if tag == "bohr" else (N, eval_extremal(at, bp))
                body = sum(abs(a[n - 1]) * at**n for n in range(start, order + 2))
                tail = extremal_coeff(order + 2, bp) * at ** (order + 2) / (1.0 - at)
                merge(
                    check_id,
                    lead + body + tail,
                    -extremal_at_minus_one(bp),
                    f"r={at!r}, mode=monomial, {source}",
                )
    return [(check_id, v, w, n) for check_id, (v, w, n) in worst.items()]


def _assert_matches_oracle(beta_grid, config, order=DEFAULT_ORDER):
    summary = falsification_sweep(beta_grid, config)
    expected = _oracle_sweep(beta_grid, config, order)
    got = [(r.inequality_id, r.max_violation, r.witness, r.checks) for r in summary.records]
    assert [g[0] for g in got] == [e[0] for e in expected]
    assert [g[3] for g in got] == [e[3] for e in expected]
    assert [g[2] for g in got] == [e[2] for e in expected]
    for g, e in zip(got, expected):
        assert abs(g[1] - e[1]) <= 1e-15, g[0]
    return summary


class TestSweepMatchesScalarOracle:
    @pytest.mark.parametrize("atoms", [4, 8])
    def test_betas_and_atoms(self, atoms):
        config = VerifyConfig(samples=200, atoms=atoms, seed=314)
        _assert_matches_oracle([0.0, 0.5, 0.9], config)

    def test_crosses_a_block_boundary(self):
        samples = _BLOCK_ENTRIES // VerifyConfig().atoms + 1
        summary = _assert_matches_oracle([0.5], VerifyConfig(samples=samples, seed=5))
        assert {rec.checks for rec in summary.records} == {samples}

    @pytest.mark.parametrize(
        "beta_grid, config",
        [
            ([0.5], VerifyConfig(samples=2, atoms=4, seed=42)),
            ([0.0, 0.9], VerifyConfig(samples=65, atoms=3, seed=7)),
        ],
    )
    def test_recorded_golden_configurations(self, beta_grid, config):
        # The two `verify` configurations whose bytes tests/test_cli.py records.
        _assert_matches_oracle(beta_grid, config)

    def test_low_order_includes_the_coefficient_tail(self, monkeypatch):
        # At order 20 the certified tail (~1e-13 at the beta = 0 Bohr
        # radius) is far above the 1e-15 agreement asked of the sweep.
        monkeypatch.setattr(abeta.verify, "DEFAULT_ORDER", 20)
        _assert_matches_oracle([0.0], VerifyConfig(samples=30, seed=9), order=20)


def _assert_witnesses_rebuild(beta_grid, config):
    """Every record's max_violation, recomputed bit for bit from the member
    its witness names."""
    for rec in falsification_sweep(beta_grid, config).records:
        source = re.search(r"seed=\[(\d+), (\d+)\], row=(\d+)$", rec.witness)
        seed, gi, row = (int(x) for x in source.groups())
        assert seed == config.seed
        mu = sample_measure(config.atoms, [seed, gi], row)
        member = ClassMember.from_measure(mu, beta_grid[gi])
        radius = re.fullmatch(r"(bohr|rogosinski)\[.*,N=(\d+)\]", rec.inequality_id)
        if radius:
            problem = RadiusProblem(Variant(radius[1]), member.beta, N=int(radius[2]))
            r = float(rec.witness.split(",", 1)[0].removeprefix("r="))
            report = check_bohr(member, problem, r)
        else:
            reports = check_coefficient_bounds(member, N_MAX)
            reports += check_fs_and_log_bounds(member)
            report = {r.inequality_id: r for r in reports}[rec.inequality_id]
        assert -report.margin == rec.max_violation


class TestWitnesses:
    def test_format_names_beta_once(self):
        summary = falsification_sweep([0.5], VerifyConfig(samples=20, seed=3))
        for rec in summary.records:
            if rec.inequality_id.startswith(("bohr[", "rogosinski[")):
                pattern = r"r=0\.\d+, mode=monomial, seed=\[3, 0\], row=\d+"
            else:
                pattern = r"beta=0\.5, seed=\[3, 0\], row=\d+"
            assert re.fullmatch(pattern, rec.witness)

    def test_seed_rebuilds_the_witness_member(self):
        config = VerifyConfig(samples=40, atoms=6, seed=21)
        for beta_grid in ([0.25], [0.0, 0.5, 0.9], [0.999]):
            _assert_witnesses_rebuild(beta_grid, config)

    @pytest.mark.parametrize("atoms", [1, 7, 100])
    def test_rows_past_the_first_block_rebuild(self, atoms, monkeypatch):
        # 150 samples in blocks of 64 entries (64, 9 and 1 rows): witnesses
        # fall past the first block too.
        monkeypatch.setattr(abeta.verify, "_BLOCK_ENTRIES", 64)
        _assert_witnesses_rebuild([0.0, 0.5], VerifyConfig(samples=150, atoms=atoms, seed=5))


class TestCertifiedTail:
    # The beta = 0 extremal member has a_n = 2/n, so its untruncated
    # coefficient majorant at r is sum_{n>=2} 2 r^n / n = 2 (-log(1-r) - r).
    r = 0.1

    def _series_rest(self):
        return 2.0 * (-math.log1p(-self.r) - self.r)

    def test_bohr_sum_is_not_below_the_untruncated_majorant(self):
        member = ClassMember.extremal(0.0, order=8)
        exact = self.r + self._series_rest()
        assert exact <= bohr_lhs(member, self.r) <= exact + 1e-11

    def test_rogosinski_sum_is_not_below_the_untruncated_majorant(self):
        member = ClassMember.extremal(0.0, order=8)
        problem = RadiusProblem(Variant.BOHR_ROGOSINSKI, member.beta, N=2)
        exact = (self.r + self._series_rest()) + self._series_rest()
        assert exact <= check_bohr(member, problem, self.r).lhs <= exact + 1e-11

    @given(
        variant=st.sampled_from(list(Variant)),
        beta=st.floats(min_value=0.0, max_value=0.95),
        atoms=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**64),
        r=st.floats(min_value=0.0, max_value=0.3, exclude_min=True),
    )
    @settings(max_examples=100, deadline=None)
    def test_truncated_majorant_certifies_the_order_96_sum(self, variant, beta, atoms, seed, r):
        # The majorant stops where its certified tail is <= _TAIL, far below
        # order 96: it must not fall below the order-96 sum (a correctly
        # rounded sum; 2 ulp cover the float summation's own rounding) nor
        # exceed it by more than the tail it adds.
        member = ClassMember.from_measure(sample_measure(atoms, seed), beta, order=96)
        problem = RadiusProblem(variant, member.beta, N=ROGOSINSKI_N)
        start = problem.start
        terms = np.abs(member.a[start - 1 :]) * r ** np.arange(start, 98, dtype=float)
        full = math.fsum([problem.lead(r), *terms.tolist()])
        ulp = math.ulp(full)
        lhs = check_bohr(member, problem, r).lhs
        assert full - 2 * ulp <= lhs <= full + 2 * _TAIL + 4 * ulp

    @pytest.mark.parametrize("beta", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("n0", [3, 10, 21])
    @pytest.mark.parametrize("r", [0.05, 0.3, 0.6])
    def test_area_tail_bounds_the_extremal_remainder(self, beta, n0, r):
        # sum_{n >= n0} n A_n^2 r^{2n} with A_n = 2 / ((1 - beta) n + beta),
        # the largest |a_n| of any member, against the closed-form bound.
        with mpmath.workdps(40):
            b, rho = mpmath.mpf(beta), mpmath.mpf(r) ** 2
            exact = mpmath.nsum(lambda n: n * (2 / ((1 - b) * n + b)) ** 2 * rho**n, [n0, mpmath.inf])
            assert _area_tail(BetaParam(beta), n0, r) >= exact


class TestVerifyConfig:
    @pytest.mark.parametrize("slack", [math.nan, math.inf, -1e-9])
    def test_rejects_non_finite_or_negative_slack(self, slack):
        with pytest.raises(ValueError, match="^slack: "):
            VerifyConfig(slack=slack)

    def test_zero_slack_is_allowed(self):
        assert VerifyConfig(slack=0.0).slack == 0.0

    @pytest.mark.parametrize("samples", [0, -1])
    def test_rejects_fewer_than_one_sample(self, samples):
        # Zero samples would check nothing and report all_pass.
        with pytest.raises(ValueError, match=f"^samples: must be >= 1, got {samples}$"):
            VerifyConfig(samples=samples)

    def test_caps_the_samples_per_beta(self):
        assert VerifyConfig(samples=MAX_SAMPLES).samples == MAX_SAMPLES == 10**7
        for samples in (MAX_SAMPLES + 1, 10**20):
            with pytest.raises(ValueError, match=f"^samples: must be <= 10000000, got {samples}$"):
                VerifyConfig(samples=samples)

    def test_caps_the_samples_times_atoms_per_beta(self):
        # Every sample count allowed at 4 atoms or fewer stays allowed.
        assert VerifyConfig(samples=MAX_SAMPLES, atoms=4).atoms == 4
        assert VerifyConfig(samples=4000, atoms=MAX_ATOMS).samples == 4000
        for samples, atoms, cap in ((10**7, 5, 8000000), (10**7, 7, 5714285), (4001, MAX_ATOMS, 4000)):
            with pytest.raises(ValueError, match=f"^samples: must be <= {cap} at {atoms} atoms, got {samples}$"):
                VerifyConfig(samples=samples, atoms=atoms)
