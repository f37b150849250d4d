"""Exact solvers used as ground truth by tests and the strict pipelines.

Exhaustive but heavily pruned searches: minimum-horizon burning schedules,
minimum equal-disk covers, minimum dominating sets, and the best
achievable burn count for designated sources.  All searches carry a node
budget and raise CapacityError when it runs out, so callers never hang.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from geoburn.core import (
    ANYWHERE,
    POINT,
    TOL,
    BurnSchedule,
    BurnSource,
    Instance,
    Model,
    Point,
    distance,
)
from geoburn.cover import candidate_centers, coverage_mask, coverage_masks

DEFAULT_NODE_BUDGET = 2_000_000


class InfeasibleError(Exception):
    """No valid schedule exists within the allowed horizon."""


class CapacityError(Exception):
    """The search node budget ran out before an answer was proven."""


def exact_burning_number(inst: Instance, model: Model | None = None, *,
                         max_steps: int | None = None,
                         node_budget: int = DEFAULT_NODE_BUDGET
                         ) -> tuple[int, BurnSchedule]:
    """Smallest horizon T admitting a valid schedule, with a witness.

    Horizons are tried in increasing order; for each, a depth-first search
    assigns ignitions step by step (largest fire radii first), pruning on
    repeated states, unreachable points, and gain-free ignitions.  The
    anywhere model requires uniform rates (a fire off the input points has
    no defined spread rate otherwise).
    """
    model = model or Model(POINT)
    n = inst.n
    if n == 0:
        return 0, BurnSchedule(model, 0, ())
    if model.tag == ANYWHERE and not inst.uniform_rates():
        raise ValueError("anywhere model supports uniform rates only")
    if max_steps is None:
        max_steps = max(1, math.ceil(n / model.k))
    budget = [node_budget]
    for horizon in range(1, max_steps + 1):
        sched = _search_horizon(inst, model, horizon, budget)
        if sched is not None:
            return horizon, sched
    raise InfeasibleError(f"no valid schedule within {max_steps} steps")


def _search_horizon(inst: Instance, model: Model, T: int,
                    budget: list[int]) -> BurnSchedule | None:
    n = inst.n
    pts = inst.points
    full = (1 << n) - 1
    point_model = model.tag == POINT

    if point_model:
        # cover[i][s]: points inside the final fire disk of point i ignited
        # at step s
        cover = [[0] * (T + 1) for _ in range(n)]
        for i in range(n):
            for s in range(1, T + 1):
                cover[i][s] = coverage_mask(pts[i], inst.rates[i] * (T - s), pts)

        def masks_at(s: int) -> list[tuple[int, int]]:
            return [(i, cover[i][s]) for i in range(n)]
    else:
        rate = inst.rates[0] if inst.rates else 1.0
        if inst.dimension == 1:
            # canonical form: slide each fire right until its right edge
            # sits on an input point, which keeps everything it covered
            step_masks: dict[int, list[tuple[Point, int]]] = {}

            def cands_at(s: int) -> list[tuple[Point, int]]:
                if s not in step_masks:
                    rho = rate * (T - s)
                    cs = [Point(p.x - rho, 0.0) for p in pts]
                    step_masks[s] = [(c, coverage_mask(c, rho, pts)) for c in cs]
                return step_masks[s]
        else:
            base = candidate_centers(pts)
            step_masks = {}

            def cands_at(s: int) -> list[tuple[Point, int]]:
                if s not in step_masks:
                    rho = rate * (T - s)
                    step_masks[s] = [(c, coverage_mask(c, rho, pts)) for c in base]
                return step_masks[s]

    failed: set[tuple] = set()
    picked: list[tuple[object, int]] = []

    def step(s: int, covered: int, used: int) -> bool:
        if covered == full:
            return True
        if s > T:
            return False
        key = (s, covered, used)
        if key in failed:
            return False
        budget[0] -= 1
        if budget[0] < 0:
            raise CapacityError("burning search node budget exhausted")
        if point_model:
            entries = [(i, cover[i][s]) for i in range(n) if not used >> i & 1]
        else:
            entries = cands_at(s)
        reach = 0
        for _, m in entries:
            reach |= m
        if full & ~covered & ~reach:
            failed.add(key)
            return False
        order = sorted(range(len(entries)),
                       key=lambda j: -(entries[j][1] & ~covered).bit_count())
        if pick(s, entries, order, 0, model.k, covered, used):
            return True
        failed.add(key)
        return False

    def pick(s: int, entries, order, pos: int, slots: int,
             covered: int, used: int) -> bool:
        if slots == 0 or pos == len(order):
            return step(s + 1, covered, used)
        for oi in range(pos, len(order)):
            j = order[oi]
            ident, mask = entries[j]
            if not mask & ~covered:
                if slots == model.k:
                    break  # gains against the node's cover descend
                continue  # an earlier pick this step broke that order
            picked.append((ident, s))
            new_used = used | (1 << ident) if point_model else used
            if pick(s, entries, order, oi + 1, slots - 1, covered | mask, new_used):
                return True
            picked.pop()
        return step(s + 1, covered, used)

    if not step(1, 0, 0):
        return None
    if point_model:
        sources = tuple(BurnSource(pts[i], s, inst.rates[i]) for i, s in picked)
    else:
        rate = inst.rates[0] if inst.rates else 1.0
        sources = tuple(BurnSource(c, s, rate) for c, s in picked)
    return BurnSchedule(model, T, sources)


def exact_disk_cover(points: Sequence[Point], radius: float, *,
                     max_size: int | None = None,
                     candidates: Sequence[Point] | None = None,
                     node_budget: int = DEFAULT_NODE_BUDGET
                     ) -> list[Point] | None:
    """Minimum cover of points by equal disks at candidate centers.

    Iterative deepening over the cover size with branch and bound: always
    branch on the uncovered point with the fewest usable disks.  Candidate
    centers default to the complete family for free placement; pass the
    input points themselves to restrict placement to them.  Returns None
    when no cover of size <= max_size exists.
    """
    pts = list(points)
    n = len(pts)
    if n == 0:
        return []
    cands = list(candidates) if candidates is not None else candidate_centers(pts)
    by_mask: dict[int, int] = {}
    for idx, m in enumerate(coverage_masks(cands, radius, pts)):
        if m and m not in by_mask:
            by_mask[m] = idx
    entries = sorted(((i, m) for m, i in by_mask.items()))
    full = (1 << n) - 1
    budget = [node_budget]

    def search(uncovered: int, size_left: int, chosen: list[int]) -> list[int] | None:
        if uncovered == 0:
            return chosen
        if size_left == 0:
            return None
        budget[0] -= 1
        if budget[0] < 0:
            raise CapacityError("disk cover node budget exhausted")
        best_gain = max((m & uncovered).bit_count() for _, m in entries)
        if best_gain == 0 or -(-uncovered.bit_count() // best_gain) > size_left:
            return None
        pivot, pivot_opts = -1, None
        u = uncovered
        while u:
            p = (u & -u).bit_length() - 1
            opts = [(i, m) for i, m in entries if m >> p & 1]
            if pivot_opts is None or len(opts) < len(pivot_opts):
                pivot, pivot_opts = p, opts
            u &= u - 1
        for i, m in sorted(pivot_opts,
                           key=lambda e: (-(e[1] & uncovered).bit_count(), e[0])):
            got = search(uncovered & ~m, size_left - 1, chosen + [i])
            if got is not None:
                return got
        return None

    upper = n if max_size is None else min(max_size, n)
    for size in range(1, upper + 1):
        sel = search(full, size, [])
        if sel is not None:
            return [cands[i] for i in sel]
    return None


def exact_dominating_set(neighbors: Sequence[set[int]], *,
                         max_size: int | None = None,
                         node_budget: int = DEFAULT_NODE_BUDGET
                         ) -> list[int] | None:
    """Minimum dominating set by increasing size, lexicographic within size.

    Returns None when no dominating set of size <= max_size exists.
    """
    n = len(neighbors)
    if n == 0:
        return []
    closed = [1 << v for v in range(n)]
    for v, nb in enumerate(neighbors):
        for u in nb:
            closed[v] |= 1 << u
    full = (1 << n) - 1
    budget = node_budget
    upper = n if max_size is None else min(max_size, n)
    for size in range(1, upper + 1):
        for combo in itertools.combinations(range(n), size):
            budget -= 1
            if budget < 0:
                raise CapacityError("dominating set node budget exhausted")
            got = 0
            for v in combo:
                got |= closed[v]
            if got == full:
                return list(combo)
    return None


def exact_max_burn(inst: Instance, q: int, *,
                   node_budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Most points burnable in q steps igniting designated sources only.

    One ignition per step, so a used source ignited at step s burns points
    within (q - s) times its rate.  Exhausts every injective assignment of
    the radius multipliers {0..q-1} to sources and returns the best count.
    """
    if inst.sources is None:
        raise ValueError("instance designates no sources")
    if q < 0:
        raise ValueError("step count must be non-negative")
    srcs = list(inst.sources)
    masks: dict[tuple[int, int], int] = {}
    for si in srcs:
        for rho in range(q):
            masks[(si, rho)] = coverage_mask(
                inst.points[si], rho * inst.rates[si], inst.points)
    best = 0
    budget = node_budget
    for t in range(min(q, len(srcs)) + 1):
        for mults in itertools.combinations(range(q), t):
            for perm in itertools.permutations(srcs, t):
                budget -= 1
                if budget < 0:
                    raise CapacityError("max-burn enumeration budget exhausted")
                got = 0
                for rho, si in zip(mults, perm):
                    got |= masks[(si, rho)]
                best = max(best, got.bit_count())
    return best
