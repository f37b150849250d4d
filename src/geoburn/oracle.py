"""Exact solvers used as ground truth by tests and the strict pipelines.

The step search assigns ignitions over steps 1..T and returns the most
points some schedule burns: minimum-horizon burning schedules, the best
burn count for designated sources (max-burn), and the LSAT gadget's
brute force all call it.  It reads the fires' masks from a
``cover.fire_masks`` table, which a burning-number solve builds once for
all its horizons.  Minimum equal-disk covers and minimum dominating sets
run on the planar local search's set-cover search instead (``_min_cover``
over ``cover._coverable``).  Both searches carry a node budget and raise
CapacityError when it runs out, so callers never hang.

Both prune by dominance (``cover.maximal_masks``): a mask inside another
mask of the same choice is never needed, because the larger one can take
its place.  The covers prune on every call.  The step search prunes only
the anywhere model's fires, where placement is free: a point-model fire
is tied to its own input point, which no other fire can stand in for,
and max-burn and the LSAT brute force light designated sources.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Callable, Sequence

import numpy as np

from geoburn.core import (
    ANYWHERE,
    POINT,
    BurnSchedule,
    BurnSource,
    Instance,
    Model,
    Point,
    pack_masks,
)
from geoburn.cover import (
    CapacityError,
    _coverable,
    _MaskGroups,
    candidate_centers,
    closed_neighborhoods,
    coverage_mask,  # noqa: F401  (the benchmark's traced run wraps this name)
    coverage_masks,
    fire_masks,
    maximal_masks,
)

DEFAULT_NODE_BUDGET = 2_000_000


class InfeasibleError(Exception):
    """No valid schedule exists within the allowed horizon."""


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

    In the anywhere model each radius's fires are cut once per solve to
    the maximal masks (``cover.maximal_masks``), shared by all horizons.
    This is exact: a fire whose mask lies inside another fire's mask at
    the same radius can be swapped for that fire, since a free center has
    no other constraint.  The point model keeps every fire, because each
    one is the ignition of its own input point.
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
    raw = fire_masks(inst, model, range(n))
    table = cache(lambda rho: maximal_masks(raw(rho))) if model.tag == ANYWHERE else raw
    for horizon in range(1, max_steps + 1):
        got, sched = _search_steps(inst, model, horizon, budget, table, n - 1)
        if got == n:
            return horizon, sched
    raise InfeasibleError(f"no valid schedule within {max_steps} steps")


def _search_steps(inst: Instance, model: Model, T: int, budget: list[int],
                  table: Callable[[int], list[tuple[object, int]]], floor: int
                  ) -> tuple[int, BurnSchedule | None]:
    """The step kernel: most points a schedule over steps 1..T burns.

    A fire ignited at step s spreads T - s steps, so the fires step s may
    light are ``table(T - s)``, a ``cover.fire_masks`` table; the kernel
    builds no masks, and one table serves every horizon of a solve.
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
        entries = table(T - s)
        if point_model:
            entries = [(i, m) for i, m in entries if not used >> i & 1]
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

    try:
        step(1, 0, 0)
    finally:
        # step and pick reach each other through closure cells; emptying
        # the cells frees the memo of failed states now, not at the next
        # full garbage collection
        del step, pick
    if witness is None:
        return best, None
    if point_model:
        srcs = tuple(BurnSource(pts[i], s, inst.rates[i]) for i, s in witness)
    else:
        srcs = tuple(BurnSource(c, s, inst.rates[0]) for c, s in witness)
    return best, BurnSchedule(model, T, srcs)


def _min_cover(masks: Sequence[int], n: int, max_size: int | None,
               node_budget: int) -> list[int] | None:
    """Indices of a minimum set of masks covering n points, or None when no
    cover of size <= max_size exists: ``cover._coverable`` at sizes 1, 2, ...

    Only the maximal masks are searched (``cover.maximal_masks``; of
    equal masks the first index).  The points are first relabelled, those
    held by the fewest masks at the lowest bits (ties by index), so that
    each node branches on the uncovered point with the fewest options:
    Knuth's rule from "Dancing links" (2000), fixed once per call.  By the
    original indices a strict k-burning guess at n = 198 ran out of the
    default budget.  A node is a ``_coverable`` call past its hitting walk.
    """
    if n == 0:
        return []
    entries = maximal_masks(list(enumerate(masks)))
    width = (n + 7) // 8
    raw = b"".join(m.to_bytes(width, "little") for _, m in entries)
    hits = np.unpackbits(np.frombuffer(raw, np.uint8).reshape(len(entries), width),
                         axis=1, count=n, bitorder="little")
    relabelled = pack_masks(hits[:, np.argsort(hits.sum(axis=0), kind="stable")])
    mg = _MaskGroups(relabelled)
    mg.budget = node_budget
    ident = {m: i for (i, _), m in zip(entries, relabelled)}
    upper = n if max_size is None else min(max_size, n)
    for size in range(1, upper + 1):
        used = _coverable((1 << n) - 1, -1, size, mg)
        if used is not None:
            return [ident[m] for m in used]
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


def exact_dominating_set(neighbors: Sequence[np.ndarray | set[int]], *,
                         max_size: int | None = None,
                         node_budget: int = DEFAULT_NODE_BUDGET
                         ) -> list[int] | None:
    """A minimum dominating set, ascending.

    The cover search over closed neighbourhoods.  ``neighbors[v]`` holds
    v's neighbour indices, as ``disk_graph``'s 1-D integer arrays or as
    sets of ints.  Returns None when no dominating set of size <= max_size
    exists.
    """
    sel = _min_cover(closed_neighborhoods(neighbors), len(neighbors), max_size, node_budget)
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
    got, _ = _search_steps(inst, Model(POINT), q, [node_budget],
                           fire_masks(inst, Model(POINT), inst.sources), 0)
    return got
