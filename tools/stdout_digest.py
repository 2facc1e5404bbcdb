"""One sha256 per set of CLI commands, to show two checkouts print the same bytes.

Each command runs through ``abeta.cli.main`` in this one process, and each
set's digest covers, command by command, the argv, the exit code, stdout
and stderr.  A command that raises instead of returning an exit code is
digested as the exception's type and message.  The sets:

- ``golden``: every ``GOLDEN_STDOUT`` command of ``tests/test_cli.py``;
- ``query_mix(3)``, ``sweep_grid(3)``, ``falsify(1)``, ``falsify(3)`` and
  ``falsify(7)``: the benchmark's commands from ``bench/workloads.py``;
- ``verify-atoms``: a 300-sample ``verify`` with 1, 7 and 100 atoms, in CSV
  and JSON;
- ``verify-readme``: the README's ``verify`` example;
- ``overflow``: Rogosinski leads f(r^m)^p that overflow a double;
- ``bad-input``: one rejected command per usage error the README lists,
  so a changed ``error:`` line shows.

Run it on two checkouts and compare the lines::

    python3 tools/stdout_digest.py                      # this checkout
    python3 tools/stdout_digest.py --root ../other-tree # another one

``--root`` names the checkout whose ``src/``, ``tests/test_cli.py`` and
``bench/workloads.py`` are used; those files are only read.  The script
needs nothing beyond the standard library and the package's own
dependencies.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import hashlib
import importlib.util
import io
import sys
from pathlib import Path

VERIFY_ATOMS = [
    ["verify", "--beta-grid", "0.0,0.25,0.999", "--samples", "300", "--seed", "5",
     "--atoms", atoms, "--out-format", out_format]
    for atoms in ("1", "7", "100")
    for out_format in ("csv", "json")
]
VERIFY_README = [["verify", "--beta", "0.5", "--samples", "1000", "--seed", "42"]]
OVERFLOW = [
    ["rogosinski", "--beta", "0.9", "--p", "3000"],
    ["rogosinski", "--beta", "0.5", "--p", "1e300"],
    ["sweep", "--beta-grid", "0.9", "--p", "3000", "--variant", "rogosinski"],
]

BAD_INPUT = [
    ["sweep", "--beta-grid", "0.5,nan"],
    ["fs-bound", "--beta", "0", "--mu", ","],
    ["fs-bound", "--beta", "0", "--mu", "0:1:1e-7"],
    ["fs-bound", "--beta", "0", "--mu", "2e307"],
    ["radius", "--beta", "0", "--tol", "inf"],
    ["verify", "--beta", "0", "--samples", "1", "--slack", "nan"],
    ["verify", "--beta", "0", "--samples", "1", "--seed", "-3"],
    ["verify", "--beta", "0", "--samples", "0"],
    ["log-bounds", "--beta", "0", "--out-path", "/"],
    ["sweep", "--beta-grid", "0.5", "--out-format", "json"],
    ["radius", "--beta", "0.5", "--m", "3", "--p", "0.01"],
]


def golden_commands(test_cli: Path) -> list[list[str]]:
    """The keys of the GOLDEN_STDOUT literal, read without importing the tests."""
    for node in ast.parse(test_cli.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "GOLDEN_STDOUT" for target in node.targets
        ):
            return [list(argv) for argv in ast.literal_eval(node.value)]
    raise LookupError(f"no GOLDEN_STDOUT assignment in {test_cli}")


def load_workloads(path: Path):
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def command_sets(root: Path) -> dict[str, list[list[str]]]:
    workloads = load_workloads(root / "bench" / "workloads.py")
    return {
        "golden": golden_commands(root / "tests" / "test_cli.py"),
        "query_mix(3)": workloads.query_mix(3),
        "sweep_grid(3)": [workloads.sweep_grid(3)],
        **{f"falsify({s})": [workloads.falsify(s)] for s in (1, 3, 7)},
        "verify-atoms": VERIFY_ATOMS,
        "verify-readme": VERIFY_README,
        "overflow": OVERFLOW,
        "bad-input": BAD_INPUT,
    }


def digest(cli_main, commands: list[list[str]]) -> str:
    h = hashlib.sha256()
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli_main(list(argv))
            except Exception as exc:  # a traceback at the command line
                code = f"{type(exc).__name__}: {exc}"
        h.update(repr((argv, code, out.getvalue(), err.getvalue())).encode())
    return h.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=Path, default=Path(__file__).resolve().parents[1],
        help="checkout to digest (default: the one holding this script)",
    )
    root = parser.parse_args().root.resolve()
    # Read the checkout's files without leaving bytecode caches in it.
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(root / "src"))
    from abeta import cli

    if root / "src" not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"imported abeta from {cli.__file__}, not from {root / 'src'}")
    for name, commands in command_sets(root).items():
        print(f"{digest(cli.main, commands)}  {name} ({len(commands)} commands)")


if __name__ == "__main__":
    main()
