"""abeta benchmark: three seeded workloads, end-to-end or traced per layer.

    python3 bench/run.py --workload sweep-grid|falsify-10k|query-mix \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload pass is a fresh process
(`bench/child.py`) against the library in `src/`; passes repeat until
`--seconds` is used up and metrics are medians over them.  `--trace 0`
reports the end-to-end metrics; `--trace 1` alternates untraced and
traced passes and reports per-layer metrics from the traced ones plus
the tracing overhead.  Every output is checked after it is timed.  The
last stdout line is the JSON result; the lines before it are a readable
report and the run metadata.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"
WORK_ROOT = BENCH_DIR / ".runs"

SETUP_PROBES = 11
# About the median time of child.reference() on the machine the README
# readings come from.  query-mix's per-command latencies and cmds_per_s are
# scaled by this over the reference's median time in their pass, so they
# read as on a host running at that speed: a shared host's speed drifts by
# a quarter between runs, and the reference, timed between the commands,
# slows with it.  wall_s, cpu_s and every other workload stay raw.
REFERENCE_S = 250e-6
# Every run must end within 180 s; a child that outlives this is killed
# and its pass counted as failed.
RUN_DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
    "cmd_p50_ms": "ms",
    "cmd_p99_ms": "ms",
}


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: str
    cpu: int | None = None
    mix: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)  # traced passes only


class Runner:
    """Spawns measured children inside a scratch directory of the checkout.

    A child starts on the CPU its parent runs on and stays there, so a run
    would otherwise measure only the CPU this process happens to sit on;
    when CPUs differ in speed (a busy sibling thread on the host), runs
    split into fast and slow ones.  Each child is therefore started on a
    given CPU and then freed (child.py widens its affinity to BENCH_CPUS).
    """

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
        env = {k: v for k, v in os.environ.items() if k != "ABETA_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        env["BENCH_CPUS"] = ",".join(map(str, self.cpus))
        self.env = env
        self._n = 0

    def cpu(self, index: int) -> int | None:
        """The CPU the index-th child starts on: round robin."""
        return self.cpus[index % len(self.cpus)] if self.cpus else None

    def path(self, suffix: str) -> Path:
        self._n += 1
        return self.work / f"{self._n}{suffix}"

    def spawn(self, cmd: list[str], cpu: int | None) -> Pass:
        """Run cmd to completion; wall from spawn to reap, rusage of the child."""
        out_path = self.path(".out")
        timeout = max(1.0, self.deadline - perf_counter())
        with open(out_path, "wb") as out:
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})  # the child forks here and inherits it
            start = perf_counter()
            try:
                proc = subprocess.Popen(
                    cmd, stdout=out, stderr=subprocess.DEVNULL, env=self.env, cwd=ROOT
                )
            finally:
                if cpu is not None:
                    os.sched_setaffinity(0, self.cpus)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Pass(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            code=proc.returncode,
            stdout=out_path.read_text(),
            cpu=cpu,
        )

    def child(self, mode: str, args: list[str], traced: bool, cpu: int | None) -> Pass:
        spans_path = self.path(".spans") if traced else None
        run = self.spawn(
            [sys.executable, str(CHILD), mode, str(spans_path or "-"), *args], cpu
        )
        if spans_path is not None and spans_path.exists():
            run.layers = tracing.layer_metrics(json.loads(spans_path.read_text()))
        return run


class Workload:
    """One workload: its seeded inputs, one measured pass, and its check.

    `checks` imports the library, so the check methods import it only
    after main() has put `src/` on the path.
    """

    name = ""
    rate_name = ""  # what items_per_s counts on this workload
    items = 0  # certified roots / sampled members / commands per pass

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def run_pass(self, runner: Runner, traced: bool, cpu: int | None) -> Pass:
        return runner.child("cli", self.argv, traced, cpu)

    def output_key(self, run: Pass) -> str:
        return f"{run.code}\n{run.stdout}"

    def check(self, run: Pass) -> tuple[int, int]:
        raise NotImplementedError

    def latencies_ms(self, passes: list[Pass]) -> list[float]:
        """Per-command latencies: here one command is one process."""
        return [1e3 * p.wall_s for p in passes]

    def items_per_s(self, passes: list[Pass]) -> float:
        return self.items / statistics.median(p.wall_s for p in passes)


class SweepGrid(Workload):
    name = "sweep-grid"
    rate_name = "roots_per_s"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.argv = workloads.sweep_grid(seed)
        self.items = len(workloads.grid_values(self.argv[2])) * len(
            workloads.SWEEP_M
        ) * len(workloads.SWEEP_VARIANTS)

    def check(self, run: Pass) -> tuple[int, int]:
        import checks

        return checks.check_sweep(self.argv, run.code, run.stdout)


class Falsify(Workload):
    name = "falsify-10k"
    rate_name = "samples_per_s"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.argv = workloads.falsify(seed)
        self.items = workloads.FALSIFY_SAMPLES * len(workloads.FALSIFY_BETAS)

    def check(self, run: Pass) -> tuple[int, int]:
        import checks

        return checks.check_falsify(self.argv, run.code, run.stdout)


class QueryMix(Workload):
    name = "query-mix"
    rate_name = "cmds_per_s"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.commands = workloads.query_mix(seed)
        self.items = len(self.commands)
        self._commands_path: Path | None = None

    def run_pass(self, runner: Runner, traced: bool, cpu: int | None) -> Pass:
        if self._commands_path is None:
            self._commands_path = runner.path(".cmds.json")
            self._commands_path.write_text(json.dumps(self.commands))
        result_path = runner.path(".mix.json")
        run = runner.child("mix", [str(self._commands_path), str(result_path)], traced, cpu)
        if run.code == 0 and result_path.exists():
            run.mix = json.loads(result_path.read_text())
        return run

    def output_key(self, run: Pass) -> str:
        return json.dumps([run.code, run.mix.get("codes"), run.mix.get("outputs")])

    def check(self, run: Pass) -> tuple[int, int]:
        import checks

        if not run.mix:
            return self.items, self.items
        return checks.check_mix(self.commands, run.mix["codes"], run.mix["outputs"])

    def latencies_ms(self, passes: list[Pass]) -> list[float]:
        return [1e3 * t * speed_scale(p) for p in passes if p.mix for t in p.mix["latency_s"]]

    def items_per_s(self, passes: list[Pass]) -> float:
        loops = [p.mix["loop_s"] * speed_scale(p) for p in passes if p.mix]
        return self.items / statistics.median(loops) if loops else 0.0


def speed_scale(run: Pass) -> float:
    """What scales a mix pass's times to the reference host speed:
    REFERENCE_S over the pass's median reference time."""
    return REFERENCE_S / statistics.median(run.mix["reference_s"])


WORKLOADS = {cls.name: cls for cls in (SweepGrid, Falsify, QueryMix)}


def check_passes(workload: Workload, passes: list[Pass]) -> tuple[int, int]:
    """(attempted, failed) over every pass.  A pass whose output equals a
    checked one reuses that verdict: the check depends on the output alone."""
    verdicts: dict[str, tuple[int, int]] = {}
    attempted = failed = 0
    for run in passes:
        key = workload.output_key(run)
        if key not in verdicts:
            verdicts[key] = workload.check(run)
        attempted += verdicts[key][0]
        failed += verdicts[key][1]
    return attempted, failed


def quantile(values: list[float], q: int) -> float:
    """q-th percentile (1..99), inclusive method; the value itself if single."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_cpu(passes: list[Pass], stat) -> float:
    """stat of each CPU's passes, averaged over the CPUs: a run's figure
    does not depend on how its passes happened to fall on fast and slow
    CPUs."""
    groups: dict[int | None, list[Pass]] = {}
    for run in passes:
        groups.setdefault(run.cpu, []).append(run)
    return statistics.fmean(stat(group) for group in groups.values())


def median_of(attr: str):
    return lambda passes: statistics.median(getattr(p, attr) for p in passes)


def measure_setup(runner: Runner) -> list[Pass]:
    """Fresh interpreters that import abeta.cli and build the parser."""
    return [
        runner.spawn([sys.executable, str(CHILD), "setup", "-"], runner.cpu(i))
        for i in range(SETUP_PROBES)
    ]


def run_passes(workload: Workload, runner: Runner, seconds: float, trace: bool) -> list[tuple[bool, Pass]]:
    """Passes until the next one would overrun `seconds`, on CPUs in turn.
    With trace, untraced and traced passes alternate, starting untraced,
    and each pair shares a CPU."""
    passes: list[tuple[bool, Pass]] = []
    start = perf_counter()
    traced = False
    while True:
        began = perf_counter()
        cpu = runner.cpu(len(passes) // 2 if trace else len(passes))
        passes.append((traced, workload.run_pass(runner, traced, cpu)))
        took = perf_counter() - began
        if trace:
            traced = not traced
        elapsed = perf_counter() - start
        if trace and not any(t for t, _ in passes):
            continue  # a traced run needs at least one traced pass
        if elapsed + took > seconds or perf_counter() + took > runner.deadline:
            return passes


def end_to_end(workload: Workload, passes: list[Pass], setup: list[Pass]) -> tuple[dict, dict]:
    def latencies(group: list[Pass]) -> list[float]:
        # Passes that crashed leave no per-command latencies; use walls.
        return workload.latencies_ms(group) or Workload.latencies_ms(workload, group)

    values = {
        "setup_s": per_cpu(setup, median_of("wall_s")),
        "wall_s": per_cpu(passes, median_of("wall_s")),
        "cpu_s": per_cpu(passes, median_of("cpu_s")),
        "peak_rss_mb": per_cpu(passes, median_of("rss_mb")),
        "items_per_s": per_cpu(passes, workload.items_per_s),
        "cmd_p50_ms": per_cpu(passes, lambda group: quantile(latencies(group), 50)),
        "cmd_p99_ms": per_cpu(passes, lambda group: quantile(latencies(group), 99)),
    }
    counts = dict.fromkeys(values, len(passes))
    counts["setup_s"] = len(setup)
    counts["cmd_p50_ms"] = counts["cmd_p99_ms"] = len(latencies(passes))
    return values, counts


def per_layer(plain: list[Pass], traced: list[Pass]) -> dict:
    values = {
        name: statistics.median(p.layers.get(name, 0.0) for p in traced)
        for name in tracing.layer_metrics([])
    }
    values["trace.overhead_ratio"] = per_cpu(traced, median_of("wall_s")) / per_cpu(
        plain, median_of("wall_s")
    )
    return values


def metadata() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            )
            commit = done.stdout.strip() or None
        except OSError:
            pass  # no git on this machine
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


LAYER_UNITS = {
    ".calls": "count",
    ".self_s": "s",
    "radii.evals_per_root": "evals",
    "radii.area_unused_ratio": "ratio",
    "extremal.f_minus_one_per_beta": "calls/beta",
    "verify.us_per_sample": "us",
    "verify.reports_per_sample": "reports/sample",
    "trace.overhead_ratio": "ratio",
}


def layer_unit(name: str) -> str:
    return LAYER_UNITS.get(name) or LAYER_UNITS["." + name.rsplit(".", 1)[1]]


def unit(name: str) -> str:
    return END_TO_END.get(name) or layer_unit(name)


def report(workload: Workload, metrics: dict, counts: dict,
           attempted: int, failed: int, n_plain: int, n_traced: int) -> None:
    ratio = failed / attempted if attempted else 1.0
    print(f"{workload.name} seed={workload.seed}: {n_plain} untraced and {n_traced} traced "
          f"passes of {workload.items} items; attempted {attempted}, "
          f"failed {failed}, fail_ratio {ratio:.6g}")
    for name, value in metrics.items():
        print(f"  {name:<42} {value:>16.6g} {unit(name):<14} n={counts[name]}")
        if name == "items_per_s":
            alias = f"({workload.rate_name})"
            print(f"  {alias:<42} {value:>16.6g} {unit(name):<14} n={counts[name]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "abeta" / "cli.py").is_file():
        print(f"error: library source not found at {SRC / 'abeta'}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))

    deadline = perf_counter() + RUN_DEADLINE_S
    workload = WORKLOADS[args.workload](args.seed)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        runner = Runner(work, deadline)
        setup = [] if args.trace else measure_setup(runner)
        passes = run_passes(workload, runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it

    attempted, failed = check_passes(workload, [p for _, p in passes])
    plain = [p for t, p in passes if not t]
    traced = [p for t, p in passes if t]

    if args.trace:
        metrics = per_layer(plain, traced)
        counts = dict.fromkeys(metrics, len(traced))
    else:
        metrics, counts = end_to_end(workload, plain, setup)

    report(workload, metrics, counts, attempted, failed, len(plain), len(traced))
    print(json.dumps({"meta": metadata()}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
