"""Benchmark suites comparing solver output against exact baselines.

Each suite produces machine-readable rows (instance id, baseline,
achieved, ratio) sorted by instance id.  Instances are generated from
the given seed, so a suite run is reproducible.
"""

from __future__ import annotations

import random
from dataclasses import replace

from .burn2d import anywhere_burning, max_burn_schedule, point_burning
from .core import ANYWHERE, POINT, Model
from .ioformats import generate
from .oracle import exact_burning_number, exact_max_burn
from .ptas1d import ptas_burning_line

__all__ = ["SUITES", "run_suite"]

SUITES = ("ptas1d", "burn2d", "maxburn")

Row = tuple[str, int, int, float]


def _ptas1d(trials: int, seed: int, epsilon: float) -> list[Row]:
    rng = random.Random(seed)
    rows = []
    for t in range(trials):
        inst = generate("collinear", n=rng.randint(3, 10), seed=seed + 1000 * t)
        delta_star, _ = exact_burning_number(inst, Model(POINT))
        horizon, _, _ = ptas_burning_line(inst, Model(POINT), epsilon)
        rows.append((f"ptas1d-{t:03d}", delta_star, horizon, horizon / delta_star))
    return rows


def _burn2d(trials: int, seed: int, epsilon: float) -> list[Row]:
    rng = random.Random(seed)
    rows = []
    for t in range(trials):
        inst = generate("uniform-square", n=rng.randint(2, 7), seed=seed + 1000 * t)
        d_any, _ = exact_burning_number(inst, Model(ANYWHERE))
        h_any, _, _ = anywhere_burning(inst, epsilon)
        rows.append((f"anywhere-{t:03d}", d_any, h_any, h_any / d_any))
        d_pt, _ = exact_burning_number(inst, Model(POINT))
        h_pt, _, _ = point_burning(inst, epsilon)
        rows.append((f"point-{t:03d}", d_pt, h_pt, h_pt / d_pt))
    return rows


def _maxburn(trials: int, seed: int) -> list[Row]:
    rng = random.Random(seed)
    rows = []
    for t in range(trials):
        inst = generate("uniform-square", n=rng.randint(2, 8), seed=seed + 1000 * t)
        count = rng.randint(1, min(3, inst.n))
        inst = replace(inst, sources=tuple(sorted(rng.sample(range(inst.n), count))))
        q = rng.randint(1, 3)
        exact = exact_max_burn(inst, q)
        greedy, _ = max_burn_schedule(inst, q)
        rows.append((f"maxburn-{t:03d}", exact, greedy, greedy / exact))
    return rows


def run_suite(suite: str, trials: int, seed: int, epsilon: float = 1.0) -> list[Row]:
    """Run one suite; rows come back sorted by instance id.

    ptas1d and burn2d rows are (id, exact burning number, solver horizon,
    horizon ratio); maxburn rows are (id, exact burned count, greedy
    burned count, greedy/exact).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    if suite == "maxburn":
        return sorted(_maxburn(trials, seed))
    return sorted((_ptas1d if suite == "ptas1d" else _burn2d)(trials, seed, epsilon))
