import contextlib
import importlib.util
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import abeta.radii
from abeta import cli
from abeta.extremal import (
    BetaDomainError,
    BetaParam,
    area_majorant,
    eval_extremal,
    extremal_at_minus_one,
    extremal_coeff,
)
from abeta.radii import (
    SAFEGUARD_STEPS,
    AreaPolynomial,
    BracketError,
    RadiusProblem,
    Variant,
    ZERO_POLYNOMIAL,
    baseline_bohr_radius,
    hat_f,
    solve_radius,
)
from oracles import hat_f_by_ulp, monotone_spot_check

F_MINUS_ONE_B0 = 1.0 - 2.0 * math.log(2.0)


def bisect_oracle(fn, lo=1e-12, hi=0.999999, iters=200):
    """Plain 200-iteration bisection, independent of the library solver."""
    flo = fn(lo)
    assert flo < 0 < fn(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fn(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def baseline_equation_beta0(m):
    # r^m + f(r) - r + f(-1) with the beta = 0 closed form for f.
    return lambda r: r**m + (-r - 2 * math.log1p(-r)) - r + F_MINUS_ONE_B0


def problem(variant=Variant.BOHR_SCHWARZ, beta=0.0, **kw):
    return RadiusProblem(variant=variant, beta=BetaParam(beta), **kw)


class TestAreaPolynomial:
    def test_evaluation(self):
        P = AreaPolynomial((0.5, 0.25))
        assert P(2.0) == pytest.approx(0.5 * 2 + 0.25 * 4)
        assert P(0.0) == 0.0

    def test_zero_polynomial(self):
        assert ZERO_POLYNOMIAL(3.0) == 0.0
        assert ZERO_POLYNOMIAL.is_zero

    def test_rejects_negative_coefficients(self):
        with pytest.raises(ValueError):
            AreaPolynomial((1.0, -0.1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_coefficients(self, bad):
        with pytest.raises(ValueError, match="finite"):
            AreaPolynomial((0.5, bad))

    def test_monotone_spot_check(self):
        assert monotone_spot_check(AreaPolynomial((0.3, 0.1)))
        assert not monotone_spot_check(lambda w: -w)
        assert not monotone_spot_check(lambda w: w + 1.0)


class TestHatF:
    def test_branches(self):
        # Bit for bit: the Bohr equation's head is hat_f(2, beta, r), once r.
        for beta, r in ((0.3, 0.7), (0.9, 0.4), (0.5, 1e-300)):
            assert hat_f(1, beta, r).hex() == (0.0).hex()
            assert hat_f(2, beta, r).hex() == r.hex()
        assert hat_f(4, 0.0, 0.5) == pytest.approx(
            0.5 + 1.0 * 0.25 + (2.0 / 3.0) * 0.125, abs=1e-15
        )

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            hat_f(0, 0.0, 0.5)
        with pytest.raises(ValueError):
            hat_f(2, 0.0, 1.0)
        for N in (1, 2, 3):  # N = 1 once returned 0.0 for any beta
            with pytest.raises(BetaDomainError):
                hat_f(N, 5.0, 0.3)

    def test_memory_does_not_grow_with_N(self):
        # The sum stops where its terms fall below half an ulp of the total.
        tracemalloc.start()
        try:
            hat_f(10**6, 0.0, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @given(
        N=st.one_of(st.integers(1, 10**4), st.sampled_from([3, 10**4])),
        beta=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        r=st.one_of(
            st.sampled_from([0.0, 5e-324, 0.5, 0.9999, 1.0 - 2**-53]),
            st.floats(min_value=0.0, max_value=2.2250738585072014e-308),
            st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
            st.floats(min_value=0.99, max_value=1.0, exclude_max=True),
        ),
    )
    @settings(max_examples=300, deadline=None)
    # At beta = 1 the terms are 2 r^n: a term of exactly half an ulp of the
    # total comes at n = 54 for r = 1/2 (rounded up, to even) and at n = 28
    # for r = 1/4 (rounded away, to even).
    @example(N=60, beta=1.0, r=0.5)
    @example(N=40, beta=1.0, r=0.25)
    def test_stop_rule_matches_the_half_ulp_rule(self, N, beta, r):
        # Stopping where the sum rounds a term away gives the bits of
        # stopping below half an ulp, exact ties included.
        assert hat_f(N, beta, r).hex() == hat_f_by_ulp(N, beta, r).hex()


class TestEquations:
    def test_bohr_limit_at_zero(self):
        val = problem(m=1, p=1.0).equation(1e-9)
        assert val == pytest.approx(F_MINUS_ONE_B0, abs=1e-6)
        assert val < 0

    def test_bohr_zero_at_oracle_root(self):
        root = bisect_oracle(baseline_equation_beta0(1))
        assert problem(m=1, p=1.0).equation(root) == pytest.approx(0.0, abs=1e-6)

    def test_strictly_increasing(self):
        probs = [
            problem(m=1, p=1.0),
            problem(beta=0.5, m=2, p=2.0, F=AreaPolynomial((0.5,))),
            problem(Variant.BOHR_ROGOSINSKI, beta=0.3, m=1, p=1.0, N=3),
        ]
        rs = np.linspace(0.01, 0.97, 1000)
        for prob in probs:
            vals = [prob.equation(r) for r in rs]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rogosinski_limit_at_zero(self):
        val = problem(Variant.BOHR_ROGOSINSKI, m=1, p=1.0, N=2).equation(1e-9)
        assert val == pytest.approx(F_MINUS_ONE_B0, abs=1e-6)

    def test_rogosinski_closed_form_beta0(self):
        # N=1, m=1, p=1, F=0 at beta=0: G(r) = 2 f(r) + f(-1).
        r = 0.15
        expected = 2 * (-r - 2 * math.log1p(-r)) + F_MINUS_ONE_B0
        got = problem(Variant.BOHR_ROGOSINSKI, m=1, p=1.0, N=1).equation(r)
        assert got == pytest.approx(expected, abs=1e-9)

    def test_rogosinski_reduction_N2(self):
        # For N=2, m=1: G(r) = f(r^m)^p + (plain Bohr terms) with hat = r.
        # Replacing the leading r^{pm} of the plain Bohr equation by
        # f(r^m)^p and hat = r recovers the N=2 equation term by term.
        prob = problem(Variant.BOHR_ROGOSINSKI, beta=0.4, m=1, p=1.0, N=2)
        base = problem(beta=0.4, m=1, p=1.0)
        from abeta.extremal import eval_extremal

        for r in np.linspace(0.05, 0.9, 9):
            lhs = prob.equation(r)
            rhs = eval_extremal(r, 0.4) ** 1 + (base.equation(r) - r ** 1)
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestLead:
    @pytest.mark.parametrize("beta", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("p", [0.25, 1.0, 4.0])
    def test_equals_the_bound_bit_for_bit(self, beta, m, p):
        bohr = problem(beta=beta, m=m, p=p)
        rogosinski = problem(Variant.BOHR_ROGOSINSKI, beta=beta, m=m, p=p)
        for r in (1e-9, 0.1, 0.5, 0.9):
            assert bohr.lead(r) == r ** (p * m)
            assert rogosinski.lead(r) == eval_extremal(r ** m, beta) ** p

    def test_overflow_reads_inf(self):
        assert problem(Variant.BOHR_ROGOSINSKI, beta=0.9, p=3000.0).lead(0.5) == math.inf

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("r", [0.0, 1.0, -0.1, math.nan])
    def test_rejects_r_outside_the_unit_interval(self, variant, r):
        with pytest.raises(ValueError, match="^r must lie in \\(0, 1\\)"):
            problem(variant).lead(r)


def oracle_equation(prob, r):
    """The radius equation with every term recomputed on each call: f(-1),
    the hat_f terms from extremal_coeff and F of the area majorant."""
    beta = prob.beta
    area = prob.F(area_majorant(r, beta))
    f_minus_one = extremal_at_minus_one(beta)
    if prob.variant is Variant.BOHR_SCHWARZ:
        return r ** (prob.p * prob.m) + eval_extremal(r, beta) - r + area + f_minus_one
    hat = 0.0
    if prob.N > 1:
        hat = r
        for n in range(2, prob.N):
            hat += extremal_coeff(n, beta) * r**n
    return (
        eval_extremal(r ** prob.m, beta) ** prob.p
        + eval_extremal(r, beta)
        - hat
        + area
        + f_minus_one
    )


AREA_POLYNOMIALS = [
    ZERO_POLYNOMIAL,
    AreaPolynomial((0.0, 0.0)),
    AreaPolynomial((0.2, 0.05)),
    # Test ids stay those of the case when it was a callable F.
    pytest.param(AreaPolynomial((0.0, 0.1)), id="<lambda>"),
]


class TestEquationConstants:
    """Per-problem constants are computed once; the values stay bit for bit."""

    RADII = np.linspace(0.01, 0.95, 20).tolist()

    @pytest.mark.parametrize("F", AREA_POLYNOMIALS)
    @pytest.mark.parametrize("beta", [0.0, 0.5, 0.9])
    def test_equation_equals_scalar_oracle(self, beta, F):
        probs = [
            problem(variant, beta=beta, m=m, p=p, N=N, F=F)
            for m, p in itertools.product((1, 3), (0.5, 2.0))
            for variant, N in [
                (Variant.BOHR_SCHWARZ, 1),
                *((Variant.BOHR_ROGOSINSKI, N) for N in (1, 2, 3, 50, 200, 10**4)),
            ]
        ]
        for prob in probs:
            for r in self.RADII:
                assert prob.equation(r) == oracle_equation(prob, r), (prob, r)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_start_and_level(self, variant):
        prob = problem(variant, beta=0.4, N=7)
        assert prob.start == (2 if variant is Variant.BOHR_SCHWARZ else 7)
        assert prob.level == -extremal_at_minus_one(0.4)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_f_minus_one_once_per_problem(self, monkeypatch, variant):
        calls = []

        def counted(*args):
            calls.append(args)
            return extremal_at_minus_one(*args)

        monkeypatch.setattr(abeta.radii, "extremal_at_minus_one", counted)
        prob = problem(variant, beta=0.4, m=2, N=3, F=AreaPolynomial((0.1,)))
        res = solve_radius(prob)
        assert res.iterations > 1 and len(calls) == 1

    @pytest.mark.parametrize("F", AREA_POLYNOMIALS)
    def test_area_majorant_only_for_a_nonzero_area_term(self, monkeypatch, F):
        calls = []

        def counted(*args):
            calls.append(args)
            return area_majorant(*args)

        monkeypatch.setattr(abeta.radii, "area_majorant", counted)
        for variant in Variant:
            problem(variant, beta=0.4, F=F).equation(0.3)
        assert len(calls) == (0 if F.is_zero else 2)


class TestSolveRadius:
    def test_matches_independent_bisection_m1(self):
        oracle = bisect_oracle(baseline_equation_beta0(1))
        result = solve_radius(problem(m=1, p=1.0), tol=1e-10)
        assert result.root == pytest.approx(oracle, abs=1e-10)

    def test_matches_independent_bisection_m2(self):
        oracle = bisect_oracle(baseline_equation_beta0(2))
        result = solve_radius(problem(m=2, p=1.0), tol=1e-10)
        assert result.root == pytest.approx(oracle, abs=1e-10)

    def test_root_certificate(self):
        for prob in [
            problem(beta=0.2, m=1, p=1.0),
            problem(beta=0.6, m=3, p=2.0, F=AreaPolynomial((0.0, 0.25))),
            problem(Variant.BOHR_ROGOSINSKI, beta=0.5, m=2, p=1.0, N=3),
        ]:
            res = solve_radius(prob, tol=1e-10)
            lo, hi = res.bracket
            assert lo < res.root < hi
            assert hi - lo <= 1e-10
            assert prob.equation(lo) < 0 < prob.equation(hi)
            assert prob.equation(res.root - 1e-10) < 0 < prob.equation(res.root + 1e-10)

    def test_root_increases_with_p_and_m(self):
        roots_p = [
            solve_radius(problem(beta=0.3, m=1, p=p)).root for p in (0.5, 1.0, 2.0)
        ]
        assert roots_p[0] < roots_p[1] < roots_p[2]
        roots_m = [
            solve_radius(problem(beta=0.3, m=m, p=1.0)).root for m in (1, 2, 3)
        ]
        assert roots_m[0] < roots_m[1] < roots_m[2]

    def test_area_functional_shrinks_root(self):
        plain = solve_radius(problem(beta=0.1, m=1, p=1.0)).root
        with_poly = solve_radius(
            problem(beta=0.1, m=1, p=1.0, F=AreaPolynomial((0.5,)))
        ).root
        assert with_poly < plain

    def test_reduction_to_baseline(self):
        for beta, m in [(0.0, 1), (0.5, 2), (0.9, 3)]:
            direct = solve_radius(problem(beta=beta, m=m, p=1.0), tol=1e-11).root
            named = baseline_bohr_radius(beta, m, tol=1e-11).root
            assert direct == pytest.approx(named, abs=1e-10)

    def test_baseline_beta_half(self):
        from abeta.extremal import eval_extremal, extremal_at_minus_one

        res = baseline_bohr_radius(0.5, 1)
        r = res.root
        # Root of r + f(r) - r + f(-1) = 0 at beta = 0.5.
        assert r ** 1 + eval_extremal(r, 0.5) - r + extremal_at_minus_one(
            0.5
        ) == pytest.approx(0.0, abs=1e-9)

    def test_rejects_beta_one(self):
        with pytest.raises(BetaDomainError):
            problem(beta=1.0)

    def test_rejects_invalid_problem_fields(self):
        # Each message starts with the field name, which the CLI flags share.
        with pytest.raises(ValueError, match="^m: "):
            problem(m=0)
        with pytest.raises(ValueError, match="^p: "):
            problem(p=0.0)
        with pytest.raises(ValueError, match="^p: "):
            problem(p=math.inf)  # the CLI would print "p": Infinity, not JSON
        with pytest.raises(ValueError, match="^N: "):
            problem(Variant.BOHR_ROGOSINSKI, N=0)
        with pytest.raises(TypeError, match="^F: "):
            problem(F=lambda w: 0.1 * w)
        with pytest.raises(ValueError):
            solve_radius(problem(), tol=0.0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 2e-3])
    def test_rejects_tol_above_max(self, tol):
        # A tol as wide as the first bracket would return its midpoint.
        with pytest.raises(ValueError, match="^tol: must lie in"):
            solve_radius(problem(), tol=tol)

    def test_general_monotone_functional(self):
        # A cubic area term: 0.1 * expm1(w) truncated after w^3.
        F = AreaPolynomial((0.1, 0.05, 0.1 / 6))
        assert monotone_spot_check(F)
        res = solve_radius(problem(beta=0.2, m=1, p=1.0, F=F))
        assert 0 < res.root < solve_radius(problem(beta=0.2, m=1, p=1.0)).root

    def test_bracket_error_type_exists(self):
        assert issubclass(BracketError, RuntimeError)

    @pytest.mark.parametrize("tol", [1e-10, 1e-4])
    def test_root_below_the_first_probe_raises(self, tol):
        # r^{0.03} = -f(-1) near r = 4e-22: the equation is positive at the
        # first lo = min(tol, 1e-6), and no bracket of width tol places the
        # root.  A shrinking lo once returned 1.25e-11 with residual 0.243.
        lo = min(tol, 1e-6)
        with pytest.raises(BracketError, match=f"r = {lo!r} \\(tol = {tol!r}\\)"):
            solve_radius(problem(beta=0.5, m=3, p=0.01), tol)

    def test_non_finite_equation_value_raises(self):
        class NotFinite(RadiusProblem):
            def equation(self, r):
                return math.nan

        with pytest.raises(BracketError, match="not finite"):
            solve_radius(NotFinite(Variant.BOHR_SCHWARZ, BetaParam(0.0)))

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_non_finite_value_at_a_probe_raises(self, bad):
        # Only +inf is bisected past; the bracket's lo end is finite.
        class NotFinite(RadiusProblem):
            def equation(self, r):
                return -1.0 if r < 0.1 else bad

        with pytest.raises(BracketError, match="not finite"):
            solve_radius(NotFinite(Variant.BOHR_SCHWARZ, BetaParam(0.0)))

    def test_inf_inside_the_bracket_raises(self):
        # Finite at both probes, +inf where the first secant step lands.
        class Pole(RadiusProblem):
            def equation(self, r):
                return math.inf if 1e-3 < r < 0.3 else r * r - 0.1

        with pytest.raises(BracketError, match="is inf, not finite"):
            solve_radius(Pole(Variant.BOHR_SCHWARZ, BetaParam(0.0)))

    @pytest.mark.parametrize(
        "beta, m, p, N, root, evaluations",
        [
            (0.9, 1, 3000.0, 1, 0.04577768419301338, 9),
            (0.5, 1, 1e300, 1, 0.1783657033881915, 8),
        ],
    )
    def test_overflowing_lead_is_bisected_to_a_certified_root(
        self, beta, m, p, N, root, evaluations
    ):
        prob = problem(Variant.BOHR_ROGOSINSKI, beta=beta, m=m, p=p, N=N)
        assert prob.lead(0.5) == math.inf
        res = solve_radius(prob)
        lo, hi = res.bracket
        assert prob.equation(lo) < 0.0 < prob.equation(hi) < math.inf
        assert (res.root, res.iterations) == (root, evaluations)

    def test_exact_zero_at_a_bisection_midpoint(self):
        tol = 1e-6
        # +inf at the first probe 0.5; the first midpoint is the zero.
        zero = 0.5 * (tol + 0.5)
        seen = {}

        class Step(RadiusProblem):
            def equation(self, r):
                seen[r] = math.inf if r > 0.3 else r - zero
                return seen[r]

        res = solve_radius(Step(Variant.BOHR_SCHWARZ, BetaParam(0.0)), tol)
        assert seen[zero] == 0.0
        lo, hi = res.bracket
        assert seen[lo] < 0 < seen[hi] < math.inf
        assert lo < res.root < hi and hi - lo <= tol

    def test_grid_iterations_and_certificates(self):
        # The acceptance-criterion-3 grid: beta 0-0.9, m 1-3, p 1-2, three F.
        tol = 1e-10
        polys = [ZERO_POLYNOMIAL, AreaPolynomial((0.5,)), AreaPolynomial((0.0, 0.25))]
        iterations = []
        for beta in np.arange(0.0, 0.95, 0.1):
            for m, p, F in itertools.product((1, 2, 3), (1.0, 2.0), polys):
                prob = problem(beta=float(beta), m=m, p=p, F=F)
                res = solve_radius(prob, tol)
                iterations.append(res.iterations)
                # The documented start: lo = tol, hi = 0.5 moved halfway to
                # 1, each negative hi becoming lo, until the equation is
                # positive at hi.
                lo, hi, probes = tol, 0.5, 2
                assert prob.equation(lo) < 0
                while prob.equation(hi) <= 0:
                    lo = hi if prob.equation(hi) < 0 else lo
                    hi, probes = 1.0 - 0.5 * (1.0 - hi), probes + 1
                bisection_steps = math.ceil(math.log2((hi - lo) / tol))
                assert res.iterations - probes <= bisection_steps + 1
                lo, hi = res.bracket
                assert lo < res.root < hi and hi - lo <= tol
                flo, fhi = prob.equation(lo), prob.equation(hi)
                assert math.isfinite(flo) and math.isfinite(fhi)
                assert flo < 0 < fhi
        assert len(iterations) == 180
        assert np.median(iterations) <= 12

    def test_exact_zero_step_evaluates_both_bracket_ends(self):
        tol = 1e-6
        # The midpoint of the initial bracket (tol, 0.5): bisection and
        # regula falsi agree on it, so the first step hits the zero exactly.
        zero = 0.5 * (tol + 0.5)
        seen = {}

        class Linear(RadiusProblem):
            def equation(self, r):
                seen[r] = r - zero
                return seen[r]

        res = solve_radius(Linear(Variant.BOHR_SCHWARZ, BetaParam(0.0)), tol)
        assert seen[zero] == 0.0
        lo, hi = res.bracket
        assert seen[lo] < 0 < seen[hi]
        assert lo < res.root < hi and hi - lo <= tol

    @pytest.mark.parametrize("variant", list(Variant))
    def test_iterations_count_equation_calls_before_the_residual(self, variant):
        calls = []

        class Counted(RadiusProblem):
            def equation(self, r):
                calls.append(r)
                return super().equation(r)

        prob = Counted(variant, BetaParam(0.4), m=2, p=1.5, N=3, F=AreaPolynomial((0.2,)))
        res = solve_radius(prob)
        assert res.iterations == len(calls) - 1
        assert calls[-1] == res.root


# Each runs in a fresh interpreter under a timeout, so a solver that stalls
# on it fails the test instead of hanging the suite.
ADVERSARIAL_EQUATIONS = {
    "flat-power": "r ** 0.02 - 0.3 ** 0.02",
    "triple-root": "(r - 0.3) ** 3",
    "step": "tanh(1e7 * (r - 0.3123))",
    "kink": "r - 0.25 if r < 0.25 else 1e6 * (r - 0.25)",
    "exponential": "expm1(60 * (r - 0.41))",
    "root-near-one": "-log1p(-r) - 6.9",
}

ADVERSARIAL_SOLVE = """
import json, math, sys
from abeta.extremal import BetaParam
from abeta.radii import RadiusProblem, Variant, solve_radius

fn = eval("lambda r: " + sys.argv[1], vars(math))

class Adversarial(RadiusProblem):
    def equation(self, r):
        return fn(r)

res = solve_radius(Adversarial(Variant.BOHR_SCHWARZ, BetaParam(0.0)), float(sys.argv[2]))
print(json.dumps({"bracket": res.bracket, "root": res.root, "iterations": res.iterations}))
"""


@pytest.mark.parametrize("tol", [1e-10, 1e-14])
def test_adversarial_inf_above_a_jump_raises(tol):
    # Negative up to 1e-9 and +inf above: bisection narrows onto the jump
    # and stops with no finite value at hi.
    env = dict(os.environ, PYTHONPATH=str(Path(abeta.radii.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", ADVERSARIAL_SOLVE, "-1.0 if r <= 1e-9 else inf", repr(tol)],
        capture_output=True, text=True, timeout=30, env=env,
    )
    assert done.returncode == 1 and done.stdout == ""
    assert "BracketError: equation is +inf down to r = " in done.stderr


@pytest.mark.parametrize("tol", [1e-10, 1e-14])
@pytest.mark.parametrize("name", list(ADVERSARIAL_EQUATIONS))
def test_adversarial_equation_within_the_worst_case(name, tol):
    expr = ADVERSARIAL_EQUATIONS[name]
    env = dict(os.environ, PYTHONPATH=str(Path(abeta.radii.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", ADVERSARIAL_SOLVE, expr, repr(tol)],
        capture_output=True, text=True, timeout=30, env=env,
    )
    assert done.returncode == 0, done.stderr
    res = json.loads(done.stdout)
    fn = eval("lambda r: " + expr, vars(math))
    # The documented start: lo = tol, hi = 0.5 moved halfway to 1, each
    # negative hi becoming lo, until the equation is positive at hi.
    lo, hi, probes = tol, 0.5, 2
    assert fn(lo) < 0
    while fn(hi) <= 0:
        lo = hi if fn(hi) < 0 else lo
        hi, probes = 1.0 - 0.5 * (1.0 - hi), probes + 1
    worst = SAFEGUARD_STEPS * math.ceil(math.log2((hi - lo) / tol))
    assert res["iterations"] - probes <= worst
    lo, hi = res["bracket"]
    assert lo < res["root"] < hi and hi - lo <= tol
    assert fn(lo) < 0 < fn(hi)


def test_query_mix_evaluation_budget(monkeypatch):
    # The radius and rogosinski commands of the benchmark's query mix,
    # seed 1: the equations users pose, from tiny roots with p m < 1 to
    # roots near 1.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    path = Path(__file__).parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    iterations = []
    for argv in workloads.query_mix(1):
        if argv[0] not in ("radius", "rogosinski"):
            continue
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        iterations.append(json.loads(out.getvalue())["iterations"])
    assert len(iterations) == 1600
    assert max(iterations) <= 20
    assert np.percentile(iterations, 99) <= 14
    assert np.median(iterations) <= 10
