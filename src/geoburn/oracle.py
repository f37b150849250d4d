"""Exact solvers used as ground truth by tests and the strict pipelines.

Two exhaustive but heavily pruned kernels answer every exact question.
The step search assigns ignitions over steps 1..T and returns the most
points some schedule burns: minimum-horizon burning schedules, the best
burn count for designated sources (max-burn), and the LSAT gadget's
brute force all call it.  The cover search finds a minimum set cover over
bitmasks: minimum equal-disk covers and minimum dominating sets call it.
Both carry a node budget and raise CapacityError when it runs out, so
callers never hang.
"""

from __future__ import annotations

import math
from typing import Sequence

from geoburn.core import (
    ANYWHERE,
    POINT,
    BurnSchedule,
    BurnSource,
    Instance,
    Model,
    Point,
)
from geoburn.cover import (
    candidate_centers,
    coverage_mask,  # noqa: F401  (the benchmark's traced run wraps this name)
    coverage_masks,
)

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

    Horizons are tried in increasing order; for each, the step search
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
        got, sched = _search_steps(inst, model, horizon, budget, range(n), n - 1)
        if got == n:
            return horizon, sched
    raise InfeasibleError(f"no valid schedule within {max_steps} steps")


def _search_steps(inst: Instance, model: Model, T: int, budget: list[int],
                  sources: Sequence[int], floor: int
                  ) -> tuple[int, BurnSchedule | None]:
    """The step kernel: most points a schedule over steps 1..T burns.

    Point-model fires may ignite only at the indices in ``sources``.
    Returns the best count above ``floor`` with a schedule reaching it,
    or (floor, None) when no schedule beats the floor; the search stops
    as soon as every point burns.  A node fails when its cover plus
    everything the remaining ignitions could reach at the node's step (the
    largest radii left) burns no more than the best count so far; failed
    states are memoized, which is sound because the best count only grows.
    """
    n = inst.n
    pts = inst.points
    point_model = model.tag == POINT

    if point_model:
        # cover[i][s]: points inside the final fire disk of point i ignited
        # at step s, from one mask call per step and rate
        cover = [[0] * (T + 1) for _ in range(n)]
        for rate in {inst.rates[i] for i in sources}:
            group = [i for i in sources if inst.rates[i] == rate]
            centers = [pts[i] for i in group]
            for s in range(1, T + 1):
                for i, m in zip(group, coverage_masks(centers, rate * (T - s), pts)):
                    cover[i][s] = m
    else:
        rate = inst.rates[0] if inst.rates else 1.0
        # on a line the canonical form slides each fire right until its
        # right edge sits on an input point, which keeps everything it
        # covered; in the plane the candidate centers suffice
        base = candidate_centers(pts) if inst.dimension == 2 else None
        step_masks: dict[int, list[tuple[Point, int]]] = {}

    def entries_at(s: int, used: int) -> list[tuple[object, int]]:
        if point_model:
            return [(i, cover[i][s]) for i in sources if not used >> i & 1]
        if s not in step_masks:
            rho = rate * (T - s)
            cs = base if base is not None else [Point(p.x - rho, 0.0) for p in pts]
            step_masks[s] = list(zip(cs, coverage_masks(cs, rho, pts)))
        return step_masks[s]

    best = floor
    witness: list[tuple[object, int]] | None = None
    failed: set[tuple] = set()
    picked: list[tuple[object, int]] = []

    def step(s: int, covered: int, used: int) -> bool:
        nonlocal best, witness
        got = covered.bit_count()
        if got > best:
            best, witness = got, list(picked)
            if got == n:
                return True
        if s > T:
            return False
        key = (s, covered, used)
        if key in failed:
            return False
        budget[0] -= 1
        if budget[0] < 0:
            raise CapacityError("burning search node budget exhausted")
        entries = entries_at(s, used)
        reach = 0
        for _, m in entries:
            reach |= m
        if (covered | reach).bit_count() <= best:
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

    step(1, 0, 0)
    if witness is None:
        return best, None
    if point_model:
        srcs = tuple(BurnSource(pts[i], s, inst.rates[i]) for i, s in witness)
    else:
        srcs = tuple(BurnSource(c, s, rate) for c, s in witness)
    return best, BurnSchedule(model, T, srcs)


def _min_cover(masks: Sequence[int], n: int, max_size: int | None,
               node_budget: int) -> list[int] | None:
    """The cover kernel: indices of a minimum set of masks covering n points.

    Masks with equal bits collapse to the first index.  Iterative
    deepening over the cover size with branch and bound: always branch on
    the uncovered point with the fewest usable masks.  Returns None when
    no cover of size <= max_size exists.
    """
    by_mask: dict[int, int] = {}
    for idx, m in enumerate(masks):
        if m and m not in by_mask:
            by_mask[m] = idx
    entries = sorted(((i, m) for m, i in by_mask.items()))
    budget = [node_budget]

    def search(uncovered: int, size_left: int, chosen: list[int]) -> list[int] | None:
        if uncovered == 0:
            return chosen
        if size_left == 0:
            return None
        budget[0] -= 1
        if budget[0] < 0:
            raise CapacityError("cover search node budget exhausted")
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

    if n == 0:
        return []
    upper = n if max_size is None else min(max_size, n)
    for size in range(1, upper + 1):
        sel = search((1 << n) - 1, size, [])
        if sel is not None:
            return sel
    return None


def exact_disk_cover(points: Sequence[Point], radius: float, *,
                     max_size: int | None = None,
                     candidates: Sequence[Point] | None = None,
                     node_budget: int = DEFAULT_NODE_BUDGET
                     ) -> list[Point] | None:
    """Minimum cover of points by equal disks at candidate centers.

    The cover search over the candidates' coverage masks.  Candidate
    centers default to the complete family for free placement; pass the
    input points themselves to restrict placement to them.  Returns None
    when no cover of size <= max_size exists.
    """
    pts = list(points)
    cands = list(candidates) if candidates is not None else candidate_centers(pts)
    sel = _min_cover(coverage_masks(cands, radius, pts), len(pts), max_size,
                     node_budget)
    return None if sel is None else [cands[i] for i in sel]


def exact_dominating_set(neighbors: Sequence[set[int]], *,
                         max_size: int | None = None,
                         node_budget: int = DEFAULT_NODE_BUDGET
                         ) -> list[int] | None:
    """A minimum dominating set, ascending.

    The cover search over closed neighbourhoods.  Returns None when no
    dominating set of size <= max_size exists.
    """
    closed = [1 << v for v in range(len(neighbors))]
    for v, nb in enumerate(neighbors):
        for u in nb:
            closed[v] |= 1 << u
    sel = _min_cover(closed, len(neighbors), max_size, node_budget)
    return None if sel is None else sorted(sel)


def exact_max_burn(inst: Instance, q: int, *,
                   node_budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Most points burnable in q steps igniting designated sources only.

    One ignition per step, so a used source ignited at step s burns points
    within (q - s) times its rate.  The step search over steps 1..q,
    restricted to the designated sources, returns the best count.
    """
    if inst.sources is None:
        raise ValueError("instance designates no sources")
    if q < 0:
        raise ValueError("step count must be non-negative")
    got, _ = _search_steps(inst, Model(POINT), q, [node_budget], inst.sources, 0)
    return got
