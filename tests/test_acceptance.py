"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import json
import math

import numpy as np

from abeta.bounds import (
    fekete_szego_bound,
    inverse_log_diff_bounds,
    log_coeffs,
    log_diff_bounds,
)
from abeta.cli import main as cli_main
from abeta.extremal import (
    BetaParam,
    area_majorant,
    eval_extremal,
    extremal_at_minus_one,
    extremal_coeff,
)
from abeta.radii import (
    AreaPolynomial,
    RadiusProblem,
    Variant,
    ZERO_POLYNOMIAL,
    baseline_bohr_radius,
    solve_radius,
)
from abeta.verify import (
    ClassMember,
    HerglotzMeasure,
    VerifyConfig,
    check_bohr,
    falsification_sweep,
)
from oracles import (
    bisect_oracle,
    inverse_log_diff_bounds_via_psi,
    log_diff_bounds_via_psi,
    ma_minda_bound,
    series_div,
    true_f,
)


def _report(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_beta0_closed_forms():
    ok = (
        abs(eval_extremal(0.5, 0.0) - (-0.5 + 2 * math.log(2))) <= 1e-9
        and abs(extremal_at_minus_one(0.0) - (1 - 2 * math.log(2))) <= 1e-9
        and abs(area_majorant(0.5, 0.0) - (-0.75 - 4 * math.log(0.75))) <= 1e-9
    )
    _report("1 closed-form beta=0 oracles", ok)


def test_criterion_2_hypergeometric_equivalence():
    pairs = [
        (beta, r)
        for beta in (0.0, 0.25, 0.5)
        for r in (0.3, -0.3, 0.6, -0.6)
    ]
    assert len(pairs) == 12
    ok = True
    for beta, r in pairs:
        # r (-1 + 2 2F1(1, 1/(1-beta); (2-beta)/(1-beta); r)), in closed form.
        ok &= abs(eval_extremal(r, beta) - true_f(r, beta)) <= 1e-9
    _report("2 hypergeometric representation equivalence", ok)


def test_criterion_3_radius_solver_grid():
    polys = [ZERO_POLYNOMIAL, AreaPolynomial((0.5,)), AreaPolynomial((0.0, 0.25))]
    ok = True
    for beta in np.arange(0.0, 0.95, 0.1):
        baselines = {m: baseline_bohr_radius(beta, m).root for m in (1, 2, 3)}
        for m in (1, 2, 3):
            for p in (1.0, 2.0):
                for F in polys:
                    prob = RadiusProblem(
                        Variant.BOHR_SCHWARZ, BetaParam(float(beta)), m=m, p=p, F=F
                    )
                    res = solve_radius(prob, tol=1e-10)
                    lo, hi = res.bracket
                    ok &= abs(res.residual) <= 1e-9
                    ok &= lo < res.root < hi and hi - lo <= 1e-10
                    ok &= prob.equation(lo) < 0 < prob.equation(hi)
                    if p == 1.0 and F.is_zero:
                        ok &= abs(res.root - baselines[m]) <= 1e-9
    f_minus_one = 1 - 2 * math.log(2)
    oracle = bisect_oracle(lambda r: r + (-r - 2 * math.log1p(-r)) - r + f_minus_one)
    ok &= abs(baseline_bohr_radius(0.0, 1).root - oracle) <= 1e-10
    ok &= abs(oracle - 0.2852) <= 1e-4
    _report("3 radius solver grid + independent bisection oracle", ok)


def test_criterion_4_sharpness_attainment():
    ok = True

    def attained(prob, root):
        # The sharp member's majorant meets -f(-1) at the root, exceeds it beyond.
        member = ClassMember.extremal(prob.beta, order=128)
        at_root, beyond = (check_bohr(member, prob, r) for r in (root, root + 1e-3))
        return abs(at_root.margin) <= 1e-6 and beyond.lhs > beyond.rhs

    # Generalized equation with functional and power terms.
    for beta, m, p, F in [
        (0.25, 2, 2.0, AreaPolynomial((0.5,))),
        (0.0, 1, 1.0, AreaPolynomial((0.0, 0.25))),
    ]:
        prob = RadiusProblem(Variant.BOHR_SCHWARZ, BetaParam(beta), m=m, p=p, F=F)
        ok &= attained(prob, solve_radius(prob).root)
    # Plain Bohr baselines.
    for beta in (0.0, 0.5):
        for m in (1, 2):
            prob = RadiusProblem(Variant.BOHR_SCHWARZ, BetaParam(beta), m=m, p=1.0)
            ok &= attained(prob, baseline_bohr_radius(beta, m).root)
    # Bohr-Rogosinski baselines.
    for beta in (0.0, 0.5):
        for N in (1, 2, 3):
            for m in (1, 2):
                prob = RadiusProblem(
                    Variant.BOHR_ROGOSINSKI, BetaParam(beta), m=m, p=1.0, N=N
                )
                ok &= attained(prob, solve_radius(prob).root)
    _report("4 sharpness attainment at the solved radii", ok)


def test_criterion_5_monotonicity():
    ok = True
    rs = np.linspace(0.005, 0.98, 1000)
    problems = [
        RadiusProblem(Variant.BOHR_SCHWARZ, BetaParam(0.0), m=1, p=1.0),
        RadiusProblem(
            Variant.BOHR_SCHWARZ, BetaParam(0.5), m=2, p=2.0, F=AreaPolynomial((0.5,))
        ),
        RadiusProblem(Variant.BOHR_ROGOSINSKI, BetaParam(0.25), m=1, p=1.0, N=3),
        RadiusProblem(
            Variant.BOHR_ROGOSINSKI,
            BetaParam(0.7),
            m=2,
            p=1.0,
            N=2,
            F=AreaPolynomial((0.0, 0.25)),
        ),
    ]
    for prob in problems:
        vals = np.array([prob.equation(float(r)) for r in rs])
        ok &= bool(np.all(np.diff(vals) > 0))
    # Root ordering in p and m.
    for beta in (0.0, 0.4):
        roots_p = [
            solve_radius(
                RadiusProblem(Variant.BOHR_SCHWARZ, BetaParam(beta), m=1, p=p)
            ).root
            for p in (0.5, 1.0, 2.0, 4.0)
        ]
        ok &= all(a < b for a, b in zip(roots_p, roots_p[1:]))
        roots_m = [
            solve_radius(
                RadiusProblem(Variant.BOHR_SCHWARZ, BetaParam(beta), m=m, p=1.0)
            ).root
            for m in (1, 2, 3, 4)
        ]
        ok &= all(a < b for a, b in zip(roots_m, roots_m[1:]))
    # Increasing any lambda strictly decreases the root.
    base = solve_radius(
        RadiusProblem(
            Variant.BOHR_SCHWARZ, BetaParam(0.2), m=1, p=1.0, F=AreaPolynomial((0.1, 0.1))
        )
    ).root
    for bumped in [AreaPolynomial((0.2, 0.1)), AreaPolynomial((0.1, 0.2))]:
        root = solve_radius(
            RadiusProblem(Variant.BOHR_SCHWARZ, BetaParam(0.2), m=1, p=1.0, F=bumped)
        ).root
        ok &= root < base
    _report("5 monotonicity of equations and roots", ok)


def test_criterion_6_closed_form_bound_tables():
    ok = (
        abs(fekete_szego_bound(1.0, 0.0) - 2 / 3) <= 1e-12
        and abs(fekete_szego_bound(-1.0, 0.0) - 5 / 3) <= 1e-12
        and abs(log_diff_bounds(0.0)[0] + 1 / math.sqrt(5)) <= 1e-12
        and abs(log_diff_bounds(0.0)[1] - 1 / 3) <= 1e-12
        and abs(inverse_log_diff_bounds(0.0)[0] + 1 / 3) <= 1e-12
        and abs(inverse_log_diff_bounds(0.0)[1] - 1 / 3) <= 1e-12
        and abs(inverse_log_diff_bounds(1.0)[0] + 1 / math.sqrt(3)) <= 1e-12
        and abs(inverse_log_diff_bounds(1.0)[1] - 1.0) <= 1e-12
    )
    _report("6 closed-form bound tables", ok)


def test_criterion_7_pipeline_identities():
    ok = True
    for beta in np.arange(0.0, 1.0 + 1e-12, 0.05):
        beta = float(beta)
        for mu in (-2.0, -0.5, 0.0, 0.3, 1.0, 2.0, 5.0):
            v = mu * (3 - 2 * beta) / (2 - beta) ** 2
            ok &= (
                abs(fekete_szego_bound(mu, beta) - ma_minda_bound(v) / (3 - 2 * beta))
                <= 1e-12
            )
        direct = log_diff_bounds(beta)
        piped = log_diff_bounds_via_psi(beta)
        ok &= max(abs(d - p) for d, p in zip(direct, piped)) <= 1e-12
        direct_i = inverse_log_diff_bounds(beta)
        piped_i = inverse_log_diff_bounds_via_psi(beta)
        ok &= max(abs(d - p) for d, p in zip(direct_i, piped_i)) <= 1e-12
    _report("7 reduction and Psi pipeline identities", ok)


def test_criterion_8_monte_carlo_zero_violation():
    config = VerifyConfig(samples=1000, atoms=8, seed=2026)
    summary = falsification_sweep([0.0, 0.25, 0.5, 0.75], config)
    worst = max((rec.max_violation for rec in summary.records), default=0.0)
    _report(f"8 Monte-Carlo zero-violation (worst margin {worst:.3e})", summary.all_pass)


def test_criterion_9_extremal_attainment():
    ok = True
    for beta in (0.0, 0.3, 0.7):
        member = ClassMember.from_measure(HerglotzMeasure.two_atom_pm(), beta)
        bound = 2.0 / (3 - 2 * beta)
        ok &= abs(abs(member.a3 - member.a2 ** 2) - bound) <= 1e-9
        diff = log_coeffs(member.a2, member.a3).moduli_difference
        ok &= abs(diff - 1.0 / (3 - 2 * beta)) <= 1e-9
        point = ClassMember.extremal(beta, order=32)
        for n in range(2, 21):
            ok &= abs(abs(point.a[n - 1]) - extremal_coeff(n, beta)) <= 1e-9
    for beta in (0.0, 0.5):
        q = 2 * (2 - beta) / math.sqrt(5 - 6 * beta + 2 * beta * beta)
        num = np.array([1, 0, -1, 0], dtype=complex)
        den = np.array([1, -q, 1, 0], dtype=complex)
        member = ClassMember.from_caratheodory(series_div(num, den), beta)
        diff = log_coeffs(member.a2, member.a3).moduli_difference
        ok &= abs(diff - (-1 / math.sqrt(5 - 6 * beta + 2 * beta * beta))) <= 1e-6
    _report("9 extremal presets attain the sharp bounds", ok)


def test_criterion_10_cli_determinism(capsys):
    args = [
        "verify", "--beta", "0.5", "--samples", "100",
        "--atoms", "4", "--seed", "42",
    ]
    code1 = cli_main(args)
    out1 = capsys.readouterr().out
    code2 = cli_main(args)
    out2 = capsys.readouterr().out
    ok = code1 == code2 == 0 and out1 == out2
    doc = json.loads(out1)
    ok &= doc["all_pass"] is True
    code = cli_main(["sweep", "--beta-grid", "0:0.4:0.1", "--variant", "both"])
    sweep_out = capsys.readouterr().out
    ok &= code == 0
    ok &= sweep_out.splitlines()[0].rstrip("\r") == "beta,m,p,N,variant,root,residual,iterations"
    # Emitted numeric fields must re-parse to the same doubles.
    code = cli_main(["radius", "--beta", "0.3", "--m", "2"])
    radius_out = capsys.readouterr().out
    rd = json.loads(radius_out)
    ok &= json.loads(json.dumps(rd)) == rd
    _report("10 CLI determinism and sweep schema", ok)
