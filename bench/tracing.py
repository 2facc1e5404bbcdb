"""In-memory span tracing for the benchmark's traced runs.

The library is not edited: :meth:`Tracer.install` replaces each public function
at the place where its caller looks it up (``abeta.radii.eval_extremal``,
``abeta.verify.solve_radius``, ``abeta.cli.solve_radius``, ...), so a call
from one layer into another opens a span.  A span is
``[id, name, start, end, parent, cmd, root, note]``: ``cmd`` is the id of
the enclosing ``cli.main`` span, ``root`` the id of the enclosing
``radii.solve_radius`` span, and ``note`` a small value some layers record
(whether the area polynomial is zero, the beta of ``f(-1)``, the checks a
sweep made).  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

ID, NAME, START, END, PARENT, CMD, ROOT, NOTE = range(8)


def _zero_area(args: tuple, kwargs: dict, result: Any) -> bool:
    return bool(getattr(args[0].F, "is_zero", False))


def _beta_of(args: tuple, kwargs: dict, result: Any) -> float:
    beta = args[0] if args else kwargs["beta"]
    return float(getattr(beta, "value", beta))


def _checks_made(args: tuple, kwargs: dict, result: Any) -> int:
    return sum(rec.checks for rec in result.records)


# (module, or module:class, where the caller looks the name up; attribute;
# span name; note).  Span names are "<defining layer>.<function>".
WRAPS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("abeta.cli", "main", "cli.main", None),
    ("abeta.cli", "build_parser", "cli.build_parser", None),
    ("abeta.cli", "solve_radius", "radii.solve_radius", None),
    ("abeta.cli", "falsification_sweep", "verify.falsification_sweep", _checks_made),
    ("abeta.cli", "fekete_szego_bound", "bounds.fekete_szego_bound", None),
    ("abeta.cli", "log_diff_bounds", "bounds.log_diff_bounds", None),
    ("abeta.cli", "inverse_log_diff_bounds", "bounds.inverse_log_diff_bounds", None),
    ("abeta.radii:RadiusProblem", "equation", "radii.equation", _zero_area),
    ("abeta.radii", "hat_f", "radii.hat_f", None),
    ("abeta.radii", "eval_extremal", "extremal.eval_extremal", None),
    ("abeta.radii", "area_majorant", "extremal.area_majorant", None),
    ("abeta.radii", "extremal_at_minus_one", "extremal.extremal_at_minus_one", _beta_of),
    ("abeta.verify", "solve_radius", "radii.solve_radius", None),
    ("abeta.verify", "sample_measure", "verify.sample_measure", None),
    ("abeta.verify:ClassMember", "from_measure", "verify.from_measure", None),
    ("abeta.verify", "caratheodory_to_member", "series.caratheodory_to_member", None),
    ("abeta.verify", "check_coefficient_bounds", "verify.check_coefficient_bounds", None),
    ("abeta.verify", "check_fs_and_log_bounds", "verify.check_fs_and_log_bounds", None),
    ("abeta.verify", "check_bohr", "verify.check_bohr", None),
    ("abeta.verify", "eval_extremal", "extremal.eval_extremal", None),
    ("abeta.verify", "extremal_at_minus_one", "extremal.extremal_at_minus_one", _beta_of),
    ("abeta.bounds", "fekete_szego_bound", "bounds.fekete_szego_bound", None),
    ("abeta.bounds", "log_coeffs", "bounds.log_coeffs", None),
    ("abeta.bounds", "inverse_log_coeffs", "bounds.inverse_log_coeffs", None),
    ("abeta.bounds", "log_diff_bounds", "bounds.log_diff_bounds", None),
    ("abeta.bounds", "inverse_log_diff_bounds", "bounds.inverse_log_diff_bounds", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in WRAPS))


class Tracer:
    """Collects spans from every thread; one stack of open spans per thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str, note: Callable | None = None) -> Callable:
        spans, ids = self.spans, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # A worker thread's first span was caused by whatever the main
            # thread has open (the pool is fed from cli.main).
            outer = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            sid = next(ids)
            span = [sid, name, 0.0, 0.0, None, None, None, None]
            if outer is not None:
                span[PARENT], span[CMD], span[ROOT] = outer[ID], outer[CMD], outer[ROOT]
            if name == "cli.main":
                span[CMD] = sid
            elif name == "radii.solve_radius":
                span[ROOT] = sid
            stack.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
                spans.append(span)
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        return traced

    def install(self) -> Callable[[], None]:
        """Wrap every entry of WRAPS; returns a function that restores them."""
        undo = []
        for target, attr, name, note in WRAPS:
            owner = _resolve(target)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(raw.__func__, name, note))
            else:
                new = self.wrap(raw, name, note)
            setattr(owner, attr, new)
            undo.append((owner, attr, raw))

        def restore() -> None:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)

        return restore

    def dump(self, path: str) -> None:
        # json.dumps encodes in one C call; json.dump to a file is ~3x slower.
        text = json.dumps(self.spans, separators=(",", ":"))
        with open(path, "w") as fh:
            fh.write(text)


def _resolve(target: str) -> Any:
    """`package.module` or `package.module:Class`."""
    module, _, cls = target.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def self_times(spans: list[list]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children may overlap (worker threads) or outlive the parent; only the
    union of their intervals, clipped to the parent's, is subtracted.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    result = {}
    for span in spans:
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(span[ID], ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result[span[ID]] = (end - start) - covered
    return result


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts, self times and ratios for one traced pass."""
    own = self_times(spans)
    calls: dict[str, int] = dict.fromkeys(SPAN_NAMES, 0)
    self_s: dict[str, float] = dict.fromkeys(SPAN_NAMES, 0.0)
    by_id = {span[ID]: span for span in spans}
    area_in_equation = area_unused = 0
    betas = set()
    sweep_s = 0.0
    checks = 0
    for span in spans:
        name = span[NAME]
        calls[name] += 1
        self_s[name] += own[span[ID]]
        if name == "extremal.area_majorant":
            parent = by_id.get(span[PARENT])
            if parent is not None and parent[NAME] == "radii.equation":
                area_in_equation += 1
                area_unused += bool(parent[NOTE])
        elif name == "extremal.extremal_at_minus_one":
            betas.add(span[NOTE])
        elif name == "verify.falsification_sweep":
            sweep_s += span[END] - span[START]
            checks += span[NOTE] or 0
    metrics: dict[str, float] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
    samples = calls["verify.sample_measure"]
    metrics["radii.evals_per_root"] = _ratio(calls["radii.equation"], calls["radii.solve_radius"])
    metrics["radii.area_unused_ratio"] = _ratio(area_unused, area_in_equation)
    metrics["extremal.f_minus_one_per_beta"] = _ratio(
        calls["extremal.extremal_at_minus_one"], len(betas)
    )
    metrics["verify.us_per_sample"] = _ratio(1e6 * sweep_s, samples)
    metrics["verify.reports_per_sample"] = _ratio(checks, samples)
    return metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
