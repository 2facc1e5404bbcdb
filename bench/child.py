"""One measured process of the benchmark.

    python3 bench/child.py setup -              import abeta.cli, build the parser
    python3 bench/child.py cli SPANS ARGV...    run `abeta ARGV...` once
    python3 bench/child.py mix SPANS CMDS OUT   closed loop over CMDS (JSON
                                                argv list), results to OUT,
                                                with a timed reference loop
                                                before every 10th command

SPANS is `-` for an untraced run, else the file the spans are written to.
Untraced `cli` mode does what the `abeta` console script does.  The
process starts on the one CPU its parent chose and first widens its
affinity to the CPUs in BENCH_CPUS, so threads may use all of them.
"""

import os
import sys

# The mix times REFERENCE_LOOPS of a fixed pure-Python loop before every
# REFERENCE_EVERY-th command, so run.py can scale the pass's latencies by
# how fast the host ran during it.
REFERENCE_EVERY = 10
REFERENCE_LOOPS = 3000


def reference() -> int:
    """Fixed work that calls no library code."""
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i % 7
    return total


def _run_mix(cli, commands_path: str, out_path: str) -> int:
    import contextlib
    import io
    import json
    from time import perf_counter

    with open(commands_path) as fh:
        commands = json.load(fh)
    latencies, codes, outputs, reference_s = [], [], [], []
    loop_start = perf_counter()
    for index, argv in enumerate(commands):
        if index % REFERENCE_EVERY == 0:
            start = perf_counter()
            reference()
            reference_s.append(perf_counter() - start)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            code = cli.main(argv)
            latencies.append(perf_counter() - start)
        codes.append(code)
        outputs.append(out.getvalue())
    loop_s = perf_counter() - loop_start - sum(reference_s)
    with open(out_path, "w") as fh:
        json.dump({
            "loop_s": loop_s, "latency_s": latencies, "reference_s": reference_s,
            "codes": codes, "outputs": outputs,
        }, fh)
    return 0


def main(argv: list[str]) -> int:
    mode, spans_path, rest = argv[0], argv[1], argv[2:]
    import abeta.cli as cli

    tracer = None
    if spans_path != "-":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        if mode == "setup":
            cli.build_parser()
            return 0
        if mode == "cli":
            return cli.main(rest)
        return _run_mix(cli, *rest)
    finally:
        if tracer is not None:
            tracer.dump(spans_path)


if __name__ == "__main__":
    if os.environ.get("BENCH_CPUS"):
        os.sched_setaffinity(0, {int(c) for c in os.environ["BENCH_CPUS"].split(",")})
    sys.exit(main(sys.argv[1:]))
