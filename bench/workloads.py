"""Seeded inputs for the three benchmark workloads.

Each generator maps a benchmark seed to the exact argv the program sees;
nothing here imports the library, and the same seed always yields the same
bytes (numbers are written with ``repr``, which round-trips doubles).
"""

from __future__ import annotations

import math
import random

SWEEP_M = (1, 2, 3)
SWEEP_BETA_STEP = 0.01
SWEEP_BETA_STOP = 0.95
SWEEP_VARIANTS = ("bohr", "rogosinski")

FALSIFY_BETAS = (0.0, 0.5, 0.9)
FALSIFY_SAMPLES = 3334

QUERY_COMMANDS = 2000
# Exact shares of the mix; shuffling exact counts keeps the mix identical
# across seeds, so only the parameters vary.
QUERY_SHARES = (("radius", 0.4), ("rogosinski", 0.4), ("fs-bound", 0.1), ("log-bounds", 0.1))
ROGOSINSKI_N = (1, 2, 3, 5, 10, 50, 200)
QUERY_BETA_MAX = 0.95
QUERY_M_MAX = 4
QUERY_P_RANGE = (0.25, 4.0)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def sweep_grid(seed: int) -> list[str]:
    """One `abeta sweep` over about 95 betas x 3 m x 2 variants (~570 roots)."""
    offset = 0.005 * _rng("sweep-grid", seed).random()
    return [
        "sweep",
        "--beta-grid", f"{offset!r}:{SWEEP_BETA_STOP!r}:{SWEEP_BETA_STEP!r}",
        "--m", ",".join(str(m) for m in SWEEP_M),
        "--variant", "both",
    ]


def grid_values(spec: str) -> list[float]:
    """The values a `start:stop:step` grid names: start + k * step below stop."""
    start, stop, step = (float(x) for x in spec.split(":"))
    values = []
    while start + len(values) * step < stop - 1e-9 * step:
        values.append(start + len(values) * step)
    return values


def falsify(seed: int) -> list[str]:
    """One `abeta verify` over 3 betas x 3334 samples (~10^4 members)."""
    verify_seed = _rng("falsify-10k", seed).randrange(2 ** 31)
    return [
        "verify",
        "--beta-grid", ",".join(f"{b!r}" for b in FALSIFY_BETAS),
        "--samples", str(FALSIFY_SAMPLES),
        "--seed", str(verify_seed),
    ]


def _poly(rng: random.Random) -> str:
    """A nonzero monotone area polynomial: 1-3 coefficients in [0.05, 1)."""
    return ",".join(repr(0.05 + 0.95 * rng.random()) for _ in range(rng.randint(1, 3)))


def _radius_args(rng: random.Random) -> list[str]:
    lo, hi = QUERY_P_RANGE
    p = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    return [
        "--beta", repr(QUERY_BETA_MAX * rng.random()),
        "--m", str(rng.randint(1, QUERY_M_MAX)),
        "--p", repr(p),
        "--poly", _poly(rng),
    ]


def query_mix(seed: int) -> list[list[str]]:
    """About 2000 single commands in the 40/40/10/10 mix, in seeded order."""
    rng = _rng("query-mix", seed)
    kinds = [
        kind for kind, share in QUERY_SHARES for _ in range(round(share * QUERY_COMMANDS))
    ]
    rng.shuffle(kinds)
    commands = []
    for kind in kinds:
        if kind == "radius":
            argv = ["radius", *_radius_args(rng)]
        elif kind == "rogosinski":
            argv = ["rogosinski", *_radius_args(rng), "--N", str(rng.choice(ROGOSINSKI_N))]
        elif kind == "fs-bound":
            start = rng.uniform(-3.0, 0.0)
            step = rng.uniform(0.1, 0.5)
            mu = f"{start!r}:{start + 4.0!r}:{step!r}"
            # `--mu=` form: argparse would read a leading '-' as a flag.
            argv = ["fs-bound", "--beta", repr(QUERY_BETA_MAX * rng.random()), f"--mu={mu}"]
        else:
            argv = ["log-bounds", "--beta", repr(QUERY_BETA_MAX * rng.random())]
        commands.append(argv)
    return commands
