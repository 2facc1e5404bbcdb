"""Command-line front-end: radius computation, bound tables, verification.

Subcommands
-----------
radius      solve a Bohr radius equation
rogosinski  solve a Bohr-Rogosinski radius equation
fs-bound    Fekete-Szego bound table over a mu grid
log-bounds  logarithmic-coefficient difference bounds
verify      Monte-Carlo verification of all inequalities
sweep       radius solves over a beta grid (CSV schema is fixed)

Exit status: 0 success, 1 validation error, 2 verification failure.
CSV cells hold numbers as %.17g and JSON numbers are Python's shortest
round-trip repr; either way every double reads back exactly.
"""

from __future__ import annotations

import argparse
import io
import itertools
import math
import os
import sys
from collections.abc import Callable, Iterable, Sequence

from .bounds import fekete_szego_bound, inverse_log_diff_bounds, log_diff_bounds
from .extremal import BetaDomainError, BetaParam, ConvergenceError
from .radii import (
    DEFAULT_TOL,
    AreaPolynomial,
    BracketError,
    RadiusProblem,
    RootResult,
    Variant,
    solve_radius,
)

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from .verify import SweepSummary, VerifyConfig

SWEEP_HEADER = ["beta", "m", "p", "N", "variant", "root", "residual", "iterations"]

_MAX_GRID_VALUES = 10**6


class CliError(Exception):
    """Validation failure; message names the offending flag."""


class _Parser(argparse.ArgumentParser):
    commands: dict[str, _Parser]  # the top-level parser's, by subcommand name
    _table: tuple | bool | None = None  # see _plain_table; built on first parse

    # argparse exits with status 2 by default; the contract is 1 for any
    # validation problem, including unknown flags.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliError(message)

    def parse_args(self, args=None, namespace=None):  # type: ignore[override]
        """argparse's parse_args, read from the table when each token is
        `--flag=value` or `--flag value` (value not starting with '-') of an
        exact flag, each value converts and is a valid choice, and every
        required flag is given; any other argv takes argparse's parse."""
        if self._table is None:
            self._table = self._plain_table()
        if self._table and args is not None and namespace is None:
            flags, required, defaults = self._table
            values, seen, tokens = {}, set(), iter(args)
            for token in tokens:
                if not isinstance(token, str):
                    break
                flag, eq, value = token.partition("=")
                action, convert = flags.get(flag, (None, None))
                if action is None:
                    break
                if not eq:
                    value = next(tokens, "-")  # none left: argparse words it
                    if not isinstance(value, str) or value.startswith("-"):
                        break
                try:
                    value = convert(value)
                except (TypeError, ValueError, argparse.ArgumentTypeError):
                    break
                if action.choices is not None and value not in action.choices:
                    break
                values[action.dest] = value
                seen.add(action)
            else:
                if required <= seen:
                    return argparse.Namespace(**{**defaults, **values})
        return super().parse_args(args, namespace)

    def _get_values(self, action, arg_strings):
        # `--flag=--` is the string '--', as argparse reads it from 3.13 on;
        # earlier versions drop the '--' and read [].
        if arg_strings == ["--"] and action.nargs is None:
            self._check_value(action, value := self._get_value(action, "--"))
            return value
        return super()._get_values(action, arg_strings)

    def _plain_table(self):
        """(option string -> (action, type converter), required actions, the
        defaults argparse sets) from this parser's own actions, or False if
        it has any but help and single-value stores."""
        actions = [a for a in self._actions if type(a) is not argparse._HelpAction]
        if self._mutually_exclusive_groups or not all(
            type(a) is argparse._StoreAction and a.nargs is None
            and not (isinstance(a.default, str) and a.type)  # argparse converts it
            for a in actions
        ):
            return False
        defaults: dict = {}
        for a in actions:
            if a.default is not argparse.SUPPRESS:
                defaults.setdefault(a.dest, a.default)
        for dest, value in self._defaults.items():
            defaults.setdefault(dest, value)
        flags = {s: (a, self._registry_get("type", a.type, a.type))
                 for a in actions for s in a.option_strings}
        return flags, {a for a in actions if a.required}, defaults


def fmt(x: float) -> str:
    return f"{x:.17g}"


def _finite(values: Iterable[float]) -> list[float]:
    values = list(values)
    if not all(math.isfinite(v) for v in values):
        raise ValueError("values must be finite")
    return values


def parse_grid(spec: str, flag: str) -> list[float]:
    """Parse `start:stop:step` (start inclusive, stop exclusive beyond
    floating tolerance, at most 10**6 values), a comma list, or a single
    number; every value must be finite, and the grid must not be empty."""
    try:
        if ":" in spec:
            parts = spec.split(":")
            if len(parts) != 3:
                raise ValueError("expected start:stop:step")
            start, stop, step = _finite(float(p) for p in parts)
            if step <= 0:
                raise ValueError("step must be positive")
            # The loop below runs once per value: bound it before it starts.
            if (stop - start) / step > _MAX_GRID_VALUES:
                raise ValueError(f"more than {_MAX_GRID_VALUES} values")
            values = []
            k = 0
            while True:
                v = start + k * step
                if v >= stop - 1e-9 * step:
                    break
                values.append(v)
                k += 1
        elif "," in spec:
            values = _finite(float(p) for p in spec.split(",") if p.strip())
        else:
            values = _finite([float(spec)])
        if not values:
            raise ValueError("empty grid")
        return values
    except ValueError as exc:
        raise CliError(f"{flag}: malformed grid {spec!r} ({exc})") from exc


def _int_grid(spec: str, flag: str) -> list[int]:
    values = parse_grid(spec, flag)
    if not all(v.is_integer() for v in values):
        raise CliError(f"{flag}: expected integers, got {spec!r}")
    return [int(v) for v in values]


def _beta(value: float, flag: str = "--beta", strict: bool = False) -> BetaParam:
    """The flag's beta; strict rejects beta = 1, as the radius equations do."""
    try:
        beta = BetaParam(value)
        if strict:
            beta.require_strict()
    except BetaDomainError as exc:
        raise CliError(f"{flag}: {exc}") from exc
    return beta


def _poly(spec: str | None) -> AreaPolynomial:
    if not spec:
        return AreaPolynomial()
    try:
        return AreaPolynomial(tuple(float(p) for p in spec.split(",")))
    except ValueError as exc:
        raise CliError(f"--poly: {exc}") from exc


def _validated(make: Callable, **fields):
    """make(**fields), whose ValueError names the offending field first;
    the flags carry the field names."""
    try:
        return make(**fields)
    except ValueError as exc:
        raise CliError(f"--{exc}") from exc


def _cell(v: object) -> str:
    """One CSV cell: floats as %.17g, lists joined by ';', bools lowercase."""
    if isinstance(v, float):
        return fmt(v)
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, list):
        return ";".join(fmt(float(x)) for x in v)
    return str(v)


def _flat_json(doc: object) -> str | None:
    """`json.dumps(doc, indent=2)` from C-level primitives for a dict of str
    keys to values each exactly a str, an int, a finite float or a list of
    finite floats; None for any other document."""
    from json.encoder import encode_basestring_ascii as quote

    items = []
    for key, value in doc.items():
        kind = type(value) if type(key) is str else None  # any other key falls back
        if kind is str:
            value = quote(value)
        elif kind is int or (kind is float and math.isfinite(value)):
            value = repr(value)
        elif kind is list and all(type(x) is float and math.isfinite(x) for x in value):
            value = "[\n    " + ",\n    ".join(map(repr, value)) + "\n  ]" if value else "[]"
        else:
            return None
        items.append(f"  {quote(key)}: {value}")
    return "{\n" + ",\n".join(items) + "\n}" if items else "{}"


def _write(args: argparse.Namespace, doc: dict | None, rows: Sequence[dict] | None = None) -> None:
    """Write `doc` as `json.dumps(doc, indent=2)` writes it, or `rows` (by
    default `doc` alone) as CSV under the first row's keys with `_cell`'s
    cells, to --out-path or stdout.  Each format's module is imported here,
    so a command loads only the one it writes."""
    if args.out_format == "json":
        import json

        text = (_flat_json(doc) or json.dumps(doc, indent=2)) + "\n"
    else:
        import csv

        if rows is None:
            rows = [doc]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(rows[0].keys())
        cells = [tuple(row.values()) for row in rows]
        line = ",".join(["%.17g"] * len(cells[0])) + "\r\n"  # fmt's bytes, a row at a time
        if all(len(row) == len(cells[0]) and all(type(v) is float for v in row) for row in cells):
            buf.write("".join([line % row for row in cells]))
        else:
            writer.writerows([_cell(v) for v in row] for row in cells)
        text = buf.getvalue()
    if not args.out_path:
        sys.stdout.write(text)
        return
    try:
        with open(args.out_path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"--out-path: {exc}") from exc


def _root_document(problem: RadiusProblem, result: RootResult) -> dict:
    return {
        "variant": problem.variant.value,
        "beta": problem.beta.value,
        "m": problem.m,
        "p": problem.p,
        "N": problem.N,
        "poly": list(problem.F.lambdas),
        "root": result.root,
        "residual": result.residual,
        "bracket_lo": result.bracket[0],
        "bracket_hi": result.bracket[1],
        "iterations": result.iterations,
    }


def _cmd_radius(args: argparse.Namespace) -> int:
    problem = _validated(
        RadiusProblem,
        variant=args.variant,
        beta=_beta(args.beta, strict=True),
        m=args.m,
        p=args.p,
        N=args.N,
        F=_poly(args.poly),
    )
    _write(args, _root_document(problem, _validated(solve_radius, problem=problem, tol=args.tol)))
    return 0


def _cmd_fs_bound(args: argparse.Namespace) -> int:
    beta = _beta(args.beta)
    bounds = [
        {"mu": mu, "bound": _validated(fekete_szego_bound, mu=mu, beta=beta)}
        for mu in parse_grid(args.mu, "--mu")
    ]
    rows = [{"beta": beta.value, **entry} for entry in bounds]
    _write(args, {"beta": beta.value, "bounds": bounds}, rows)
    return 0


def _cmd_log_bounds(args: argparse.Namespace) -> int:
    beta = _beta(args.beta)
    lo, hi = log_diff_bounds(beta)
    ilo, ihi = inverse_log_diff_bounds(beta)
    doc = {
        "beta": beta.value,
        "gamma_lower": lo,
        "gamma_upper": hi,
        "inverse_gamma_lower": ilo,
        "inverse_gamma_upper": ihi,
    }
    _write(args, doc)
    return 0


def _verify_module():
    """abeta.verify, imported on first use: it needs numpy, and no other
    command should pay for loading it.  Unless the caller set it,
    OPENBLAS_NUM_THREADS becomes 1 first: numpy's OpenBLAS otherwise starts
    a busy worker per extra CPU at import, and verify makes no BLAS call."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import verify

    return verify


def falsification_sweep(betas: Sequence[float], config: VerifyConfig) -> SweepSummary:
    """:func:`abeta.verify.falsification_sweep` through `_verify_module`."""
    return _verify_module().falsification_sweep(betas, config)


def _cmd_verify(args: argparse.Namespace) -> int:
    from dataclasses import asdict  # loaded by abeta.verify anyway

    flag = "--beta-grid" if args.beta_grid else "--beta"
    betas = parse_grid(args.beta_grid, flag) if args.beta_grid else [args.beta]
    for b in betas:
        _beta(b, flag, strict=True)
    config = _validated(
        _verify_module().VerifyConfig,
        samples=args.samples, atoms=args.atoms, seed=args.seed, slack=args.slack,
    )
    try:
        summary = falsification_sweep(betas, config)
    except BracketError as exc:  # names the beta whose radius cannot be solved
        raise CliError(f"{flag}: {exc}") from exc
    inequalities = [
        {
            "id": rec.inequality_id,
            "max_violation": rec.max_violation,
            "witness": rec.witness,
            "checks": rec.checks,
        }
        for rec in summary.records
    ]
    doc = {
        "beta_grid": betas,
        **asdict(config),
        "all_pass": summary.all_pass,
        "inequalities": inequalities,
    }
    rows = [{**entry, "pass": entry["max_violation"] <= config.slack} for entry in inequalities]
    _write(args, doc, rows)
    return 0 if summary.all_pass else 2


def _cmd_sweep(args: argparse.Namespace) -> int:
    grid = parse_grid(args.beta_grid, "--beta-grid")
    betas = [_beta(b, "--beta-grid", strict=True) for b in grid]
    ms = _int_grid(args.m, "--m")
    ps = parse_grid(args.p, "--p")
    ns = _int_grid(args.N, "--N")
    variants = list(Variant) if args.variant == "both" else [Variant(args.variant)]
    cells = len(betas) * len(ms) * len(ps) * len(ns) * len(variants)
    if cells > _MAX_GRID_VALUES:  # a solve and a row each: bound them before the first
        flags = "--beta-grid x --m x --p x --N x --variant"
        raise CliError(f"{flags}: {cells} cells, more than {_MAX_GRID_VALUES}")
    rows = []
    for beta, m, p, n, variant in itertools.product(betas, ms, ps, ns, variants):
        problem = _validated(RadiusProblem, variant=variant, beta=beta, m=m, p=p, N=n)
        try:
            result = _validated(solve_radius, problem=problem, tol=args.tol)
        except BracketError as exc:
            cell = f"beta = {beta.value!r}, m = {m}, p = {p!r}, N = {n}, variant = {variant.value}"
            raise CliError(f"--beta-grid: {cell}: {exc}") from exc
        doc = _root_document(problem, result)
        rows.append({key: doc[key] for key in SWEEP_HEADER})
    _write(args, None, rows)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="abeta", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def add_output(
        p: _Parser, default_format: str, formats: tuple[str, ...] = ("csv", "json")
    ) -> None:
        p.add_argument("--out-format", choices=formats, default=default_format)
        p.add_argument("--out-path", default=None)

    def add_radius_args(p: _Parser) -> None:
        p.add_argument("--beta", type=float, required=True)
        p.add_argument("--m", type=int, default=1)
        p.add_argument("--p", type=float, default=1.0)
        p.add_argument("--poly", default=None, help="comma list of lambda_1..lambda_k")
        p.add_argument("--tol", type=float, default=DEFAULT_TOL)

    p = sub.add_parser("radius", help="solve a Bohr radius equation")
    add_radius_args(p)
    add_output(p, "json")
    p.set_defaults(func=_cmd_radius, variant=Variant.BOHR_SCHWARZ, N=1)

    p = sub.add_parser("rogosinski", help="solve a Bohr-Rogosinski radius equation")
    add_radius_args(p)
    p.add_argument("--N", type=int, default=1)
    add_output(p, "json")
    p.set_defaults(func=_cmd_radius, variant=Variant.BOHR_ROGOSINSKI)

    p = sub.add_parser("fs-bound", help="Fekete-Szego bound table")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--mu", required=True, help="single value, comma list, or start:stop:step")
    add_output(p, "csv")
    p.set_defaults(func=_cmd_fs_bound)

    p = sub.add_parser("log-bounds", help="logarithmic-coefficient difference bounds")
    p.add_argument("--beta", type=float, required=True)
    add_output(p, "csv")
    p.set_defaults(func=_cmd_log_bounds)

    p = sub.add_parser("verify", help="Monte-Carlo verification of all inequalities")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--beta", type=float)
    group.add_argument("--beta-grid", default=None)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--atoms", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--slack", type=float, default=1e-9)
    add_output(p, "json")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="radius solves over parameter grids (CSV)")
    p.add_argument("--beta-grid", required=True)
    p.add_argument("--m", default="1")
    p.add_argument("--p", default="1")
    p.add_argument("--N", default="1")
    p.add_argument("--variant", choices=["bohr", "rogosinski", "both"], default="bohr")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    add_output(p, "csv", formats=("csv",))
    p.set_defaults(func=_cmd_sweep)

    return parser


# (builder, parser) of the first main call.  Reusing the parser is safe:
# parse_args makes a fresh Namespace on every call and _Parser.error raises
# instead of exiting.  A replaced build_parser (a wrapper or a test double)
# takes effect on the next call.
_parser: tuple[Callable[[], _Parser], _Parser] | None = None


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command (argv defaults to sys.argv[1:]); the parser is built
    on the first call only.  A known subcommand's flags are parsed once, by
    its own parser; any other argv takes the full parse and its messages.
    Every parser but verify's and the top level's reads a plain argv from a
    table of its own flags (_Parser.parse_args); argparse still parses the
    rest, so it words every error and help."""
    global _parser
    if _parser is None or _parser[0] is not build_parser:
        _parser = (build_parser, build_parser())
    parser = _parser[1]
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in parser.commands:
        parser, argv = parser.commands[argv[0]], argv[1:]
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, ValueError, BracketError, ConvergenceError) as exc:
        # BetaDomainError is a ValueError; solver errors carry the reason.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
