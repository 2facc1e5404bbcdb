"""Tests of the benchmark itself: `python3 -m pytest bench -q` from the root."""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from abeta import cli  # noqa: E402
from abeta.bounds import fekete_szego_bound, inverse_log_diff_bounds, log_diff_bounds  # noqa: E402
from abeta.extremal import BetaParam  # noqa: E402
from abeta.radii import AreaPolynomial, RadiusProblem, Variant, solve_radius  # noqa: E402

GENERATORS = [workloads.sweep_grid, workloads.falsify, workloads.query_mix]


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("generate", GENERATORS)
def test_generators_are_byte_deterministic(generate):
    first = json.dumps(generate(7)).encode()
    assert json.dumps(generate(7)).encode() == first
    assert json.dumps(generate(8)).encode() != first


def test_workload_sizes():
    assert len(workloads.grid_values(workloads.sweep_grid(3)[2])) * 6 == 570
    commands = workloads.query_mix(3)
    kinds = [argv[0] for argv in commands]
    assert len(commands) == 2000
    assert [kinds.count(k) for k in ("radius", "rogosinski", "fs-bound", "log-bounds")] == [
        800, 800, 200, 200,
    ]
    for argv in commands:
        if argv[0] in ("radius", "rogosinski"):
            assert any(float(x) > 0 for x in checks.flag_value(argv, "--poly").split(","))


def test_certificate_rejects_root_shifted_by_ten_tol():
    problem = RadiusProblem(
        Variant.BOHR_ROGOSINSKI, BetaParam(0.3), m=2, p=1.5, N=5, F=AreaPolynomial((0.2,))
    )
    root = solve_radius(problem, checks.CLI_TOL).root
    assert checks.root_certified(problem, root)
    assert not checks.root_certified(problem, root + 10 * checks.CLI_TOL)
    assert not checks.root_certified(problem, root - 10 * checks.CLI_TOL)


def _replace_last_field(csv_text: str, value: str) -> str:
    """The CSV with the last field of its first data row set to value."""
    lines = csv_text.split("\r\n")
    lines[1] = lines[1].rsplit(",", 1)[0] + "," + value
    return "\r\n".join(lines)


def test_command_check_rejects_tampered_outputs():
    argv = ["radius", "--beta", "0.25", "--m", "2", "--p", "0.5", "--poly", "0.3,0.1"]
    code, out = _run_cli(argv)
    assert checks.check_command(argv, code, out)
    doc = json.loads(out)
    doc["root"] += 10 * checks.CLI_TOL
    assert not checks.check_command(argv, code, json.dumps(doc))

    argv = ["fs-bound", "--beta", "0.5", "--mu=-1.5:1:0.5"]
    code, out = _run_cli(argv)
    assert checks.check_command(argv, code, out)
    assert not checks.check_command(argv, code, _replace_last_field(out, "2.5"))

    argv = ["log-bounds", "--beta", "0.75"]
    code, out = _run_cli(argv)
    assert checks.check_command(argv, code, out)
    assert not checks.check_command(argv, code, _replace_last_field(out, "0.5"))


def test_bound_check_does_not_trust_the_library_alone(monkeypatch):
    for beta in (0.0, 0.3, 0.95):
        want = (*log_diff_bounds(beta), *inverse_log_diff_bounds(beta))
        assert checks.log_bounds_reference(beta) == pytest.approx(want, rel=1e-14)
        for mu in (-2.5, -0.5, 0.0, 0.7, 1.0, 1.3, 3.0):
            assert checks.fs_reference(mu, beta) == pytest.approx(
                fekete_szego_bound(mu, beta), rel=1e-14
            )
    # A library whose upper bound is 1% loose, printed faithfully by the CLI.
    loose = lambda b: (log_diff_bounds(b)[0], 1.01 * log_diff_bounds(b)[1])  # noqa: E731
    monkeypatch.setattr(cli, "log_diff_bounds", loose)
    monkeypatch.setattr(checks, "log_diff_bounds", loose)
    argv = ["log-bounds", "--beta", "0.75"]
    code, out = _run_cli(argv)
    assert code == 0 and not checks.check_command(argv, code, out)


def test_falsify_check_counts_every_inequality():
    argv = ["verify", "--beta-grid", "0.0,0.5", "--samples", "3", "--seed", "1"]
    code, out = _run_cli(argv)
    assert checks.check_falsify(argv, code, out) == (33, 0)
    doc = json.loads(out)
    doc["inequalities"][0]["checks"] -= 1
    assert checks.check_falsify(argv, code, json.dumps(doc)) == (33, 1)


def _span(sid, start, end, parent=None, name="x"):
    return (sid, name, start, end, parent, None, None, None)


def test_self_time_on_synthetic_tree():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),
        _span(3, 3.0, 6.0, parent=1),  # overlaps 2, as a worker thread would
        _span(4, 8.0, 12.0, parent=1),  # outlives its parent: clipped at 10
        _span(5, 2.0, 3.5, parent=2),  # grandchild: charged to 2 only
        _span(6, 20.0, 21.0),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({1: 3.0, 2: 1.5, 3: 3.0, 4: 4.0, 5: 1.5, 6: 1.0})


def test_tracer_sees_cross_layer_calls_and_restores():
    original = cli.solve_radius
    tracer = tracing.Tracer()
    restore = tracer.install()
    try:
        code, out = _run_cli(["rogosinski", "--beta", "0.5", "--N", "3", "--poly", "0.1"])
    finally:
        restore()
    assert code == 0 and cli.solve_radius is original
    names = {span[tracing.ID]: span[tracing.NAME] for span in tracer.spans}
    chain = {
        (names.get(span[tracing.PARENT]), span[tracing.NAME]) for span in tracer.spans
    }
    assert ("cli.main", "radii.solve_radius") in chain
    assert ("radii.solve_radius", "radii.equation") in chain
    assert ("radii.equation", "extremal.eval_extremal") in chain
    assert ("radii.equation", "radii.hat_f") in chain
    metrics = tracing.layer_metrics(tracer.spans)
    # The solver's iteration count excludes its final residual evaluation.
    assert metrics["radii.evals_per_root"] == json.loads(out)["iterations"] + 1
    assert metrics["radii.area_unused_ratio"] == 0.0
    assert metrics["cli.main.calls"] == metrics["cli.build_parser.calls"] == 1


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer_names = [*tracing.layer_metrics([]), "trace.overhead_ratio"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.layer_unit(name) for name in layer_names
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_mix_times_scale_to_reference_speed():
    mix = run.QueryMix(3)
    fast = run.Pass(1.0, 1.0, 30.0, 0, "", mix={
        "loop_s": 4.0, "latency_s": [0.002] * 2000, "reference_s": [run.REFERENCE_S] * 3,
    })
    # The same pass on a host running at half speed: every time doubles.
    slow = run.Pass(2.0, 2.0, 30.0, 0, "", mix={
        "loop_s": 8.0, "latency_s": [0.004] * 2000, "reference_s": [2 * run.REFERENCE_S] * 3,
    })
    for passes in ([fast], [slow]):
        assert mix.latencies_ms(passes) == pytest.approx([2.0] * 2000)
        assert mix.items_per_s(passes) == pytest.approx(500.0)
