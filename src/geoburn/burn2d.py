"""Planar burning pipelines and the designated-source maximization.

Every pipeline guesses the horizon in increasing order, measures a cover
or dominating set against the guess's capacity, and realizes the first
accepted guess as an ignition schedule:

* anywhere_burning: bulk of the cover centers ignite first; the last few
  disks are handled by five-fire templates, each fire placed so its share
  of the disk is reached in the remaining steps.  About 1.92 (1 + eps)
  times optimal.
* point_burning: every cover center (an input point) ignites; fires too
  young to span their whole disk get their outer annulus patched by
  igniting one input point per occupied thirteenth-sector.  A source an
  earlier fire has already burnt is left out.  About 53/27 (1 + eps)
  times optimal.
* k_burning_nonuniform: dominating set of the rate-scaled disk graph,
  k ignitions per step, horizon stretched by the largest rate ratio h.
  A source an earlier fire has already burnt is left out when the
  earlier fire alone burns everything it would.  About 1 + h + eps times
  optimal; point_burning_nonuniform is its k = 1 form.
* max_burn_schedule: grouped greedy over the exact search's fire masks;
  burns at least half of the best achievable count.

With strict_oracle the guesses use exact minimum covers / dominating sets
(bounded-size decision searches) instead of greedy ones.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import or_

from geoburn.core import (
    ANYWHERE,
    POINT,
    BurnSchedule,
    BurnSource,
    GuessTrace,
    Instance,
    Model,
    burn_masks,
    burns,
    check_epsilon,
)
from geoburn.cover import (
    ANNULUS_INNER_FRACTION,
    LATE_REACH_FRACTION,
    ZONE_COUNT,
    candidate_centers,
    coverage_mask,  # noqa: F401  (the benchmark's traced run wraps this name)
    disk_cover_approx,
    disk_graph,
    dominating_set_greedy,
    fire_masks,
    max_coverage_groups,
    scaled_template,
    zone_of,
)
from geoburn.oracle import exact_disk_cover, exact_dominating_set

PHASE1_FRACTION = 0.92188
PHASE2_FRACTION = 0.07812
TEMPLATE_FRACTION = 0.6094
PHASE2_BUDGET_FRACTION = 0.3906


def _iceil(x: float) -> int:
    # ceiling robust against float dust just above an integer
    return math.ceil(x - 1e-9)


def _ifloor(x: float) -> int:
    return math.floor(x + 1e-9)


def _check(inst: Instance, epsilon: float, uniform: bool) -> None:
    check_epsilon(epsilon)
    if uniform and not inst.uniform_rates():
        raise ValueError("uniform rates required")


def _accepted_cover(trace, inst, epsilon, strict, candidates):
    # the planar guesses: a radius delta * rate cover within delta * (1 + epsilon) disks
    pts, rate = inst.points, inst.rates[0]

    def attempt(delta):
        threshold = delta * (1.0 + epsilon)
        if strict:
            return exact_disk_cover(pts, delta * rate, max_size=_ifloor(threshold),
                                    candidates=candidates), threshold
        return disk_cover_approx(pts, delta * rate, candidates, epsilon), threshold

    delta, cover = trace.search(attempt)
    return delta, sorted(cover)


def anywhere_burning(inst: Instance, epsilon: float = 1.0, *,
                     strict_oracle: bool = False
                     ) -> tuple[int, BurnSchedule, GuessTrace]:
    """Schedule free-placement fires burning every input point.

    Horizon at most 1.92188 (1 + epsilon) delta* + 1.
    """
    _check(inst, epsilon, uniform=True)
    model = Model(ANYWHERE)
    trace = GuessTrace(constants={
        "epsilon": epsilon,
        "phase1_fraction": PHASE1_FRACTION,
        "phase2_fraction": PHASE2_FRACTION,
        "template_fraction": TEMPLATE_FRACTION,
        "phase2_budget_fraction": PHASE2_BUDGET_FRACTION,
    })
    if inst.n == 0:
        return 0, BurnSchedule(model, 0, ()), trace
    rate, n = inst.rates[0], inst.n
    # the exact cover needs the complete family; the greedy one is capped
    cands = candidate_centers(inst.points, midpoints=strict_oracle or n <= 150,
                              circumcenters=strict_oracle or n <= 40)
    delta, centers = _accepted_cover(trace, inst, epsilon, strict_oracle, cands)

    m = len(centers)
    n1 = _iceil(PHASE1_FRACTION * m)
    horizon = n1 + _iceil(delta * (1.0 + epsilon))
    fires = centers[:n1] + [tp for c in centers[n1:]
                            for tp in scaled_template(c, delta * rate)]
    sources = [BurnSource(c, step, rate) for step, c in enumerate(fires, start=1)]
    # every template fire must still reach its 0.6094-delta share
    assert horizon - len(fires) + 1e-9 >= TEMPLATE_FRACTION * delta, \
        "template ignitions ran past their step budget"
    return horizon, BurnSchedule(model, horizon, tuple(sources)), trace


def point_burning(inst: Instance, epsilon: float = 1.0, *,
                  strict_oracle: bool = False
                  ) -> tuple[int, BurnSchedule, GuessTrace]:
    """Schedule fires at input points burning every input point.

    Horizon at most (53/27) (1 + epsilon) delta* + 1.
    """
    _check(inst, epsilon, uniform=True)
    model = Model(POINT)
    trace = GuessTrace(constants={
        "epsilon": epsilon,
        "annulus_inner_fraction": ANNULUS_INNER_FRACTION,
        "late_reach_fraction": LATE_REACH_FRACTION,
    })
    if inst.n == 0:
        return 0, BurnSchedule(model, 0, ()), trace
    rate, pts = inst.rates[0], inst.points
    delta, centers = _accepted_cover(trace, inst, epsilon, strict_oracle, pts)

    m = len(centers)
    extra = _iceil(ANNULUS_INNER_FRACTION * delta * (1.0 + epsilon))
    horizon = m + extra
    sources = [BurnSource(c, step, rate) for step, c in enumerate(centers, start=1)]
    burnt = reduce(or_, burn_masks(sources, horizon, pts), 0)

    # fires younger than delta leave an outer annulus: patch each occupied
    # thirteenth-sector by igniting its lowest-index leftover point
    late_count = min(m, max(0, delta - extra))
    reps: list[int] = []
    for c in centers[m - late_count:m]:
        for zone in range(ZONE_COUNT):
            for i, p in enumerate(pts):
                if not burnt >> i & 1 and zone_of(p, c, delta * rate) == zone:
                    burnt |= 1 << i  # its patch fire burns it
                    reps.append(i)
                    break
    assert len(reps) <= extra, "annulus fires ran past the horizon"
    sources += [BurnSource(pts[i], step, rate) for step, i in enumerate(reps, m + 1)]
    if reps:
        assert extra - len(reps) + 1e-9 >= LATE_REACH_FRACTION * delta, \
            "an annulus fire cannot span its zone"
    sources = _drop_burnt_ignitions(pts, horizon, sources)
    return horizon, BurnSchedule(model, horizon, tuple(sources)), trace


def _drop_burnt_ignitions(points, horizon: int,
                          sources: list[BurnSource]) -> list[BurnSource]:
    # Drop every source (given in step order) whose point an earlier kept
    # fire has burnt by its ignition step, when that fire's final burn
    # mask holds the dropped one's; the horizon and other steps stay.
    # The subset test assumes nothing about the rates, so a faster later
    # fire that reaches beyond the earlier one is kept.  Under one rate
    # the triangle inequality nests the disks up to 2 TOL, so nearly
    # every such source goes.
    kept: list[tuple[BurnSource, int]] = []
    for s, mine in zip(sources, burn_masks(sources, horizon, points)):
        if not any(mine & ~theirs == 0 and e.step < s.step and burns(e, s.center, s.step)
                   for e, theirs in kept):
            kept.append((s, mine))
    return [s for s, _ in kept]


def k_burning_nonuniform(inst: Instance, k: int = 1, epsilon: float = 1.0, *,
                         strict_oracle: bool = False
                         ) -> tuple[int, BurnSchedule, GuessTrace]:
    """Schedules for per-point spread rates, k ignitions per step.

    Ignites a dominating set of the disk graph whose vertex t carries
    radius (delta - 1) / 2 times its rate, then waits out the rate spread:
    horizon about (1 + h + epsilon) delta* with h the largest rate ratio.
    A source that an earlier fire has already burnt, and whose own fire
    adds no point, is left out.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    _check(inst, epsilon, uniform=False)
    model = Model(POINT, k)
    h = inst.rate_ratio()
    trace = GuessTrace(constants={"epsilon": epsilon, "rate_ratio": h})
    if inst.n == 0:
        return 0, BurnSchedule(model, 0, ()), trace
    pts = inst.points

    def attempt(delta):
        radii = [(delta - 1) / 2.0 * r for r in inst.rates]
        nbrs = disk_graph(pts, radii)
        threshold = k * delta * (1.0 + epsilon)
        if strict_oracle:
            return exact_dominating_set(nbrs, max_size=_ifloor(threshold)), threshold
        return dominating_set_greedy(nbrs), threshold

    delta, dom = trace.search(attempt)

    wait = h * (delta - 1) if delta > 1 else 0.0
    if not math.isfinite(wait):
        raise ValueError(f"the horizon is not finite at rate ratio {h!r}")
    order = sorted(dom, key=lambda i: pts[i])
    ignite_steps = -(-len(order) // k)
    horizon = ignite_steps + _iceil(wait)
    sources = [BurnSource(pts[i], 1 + j // k, inst.rates[i])
               for j, i in enumerate(order)]
    # a dominator e of p satisfies d(p, e) <= (delta-1)(r_e + r_p)/2, and
    # its fire gets at least h (delta - 1) steps: r_e h >= (r_e + r_p)/2
    assert reduce(or_, burn_masks(sources, horizon, pts), 0) == (1 << inst.n) - 1, \
        "dominating fire fails to reach a point"
    sources = _drop_burnt_ignitions(pts, horizon, sources)
    return horizon, BurnSchedule(model, horizon, tuple(sources)), trace


def point_burning_nonuniform(inst: Instance, epsilon: float = 1.0, *,
                             strict_oracle: bool = False
                             ) -> tuple[int, BurnSchedule, GuessTrace]:
    """k_burning_nonuniform with one ignition per step."""
    return k_burning_nonuniform(inst, 1, epsilon, strict_oracle=strict_oracle)


def max_burn_schedule(inst: Instance, q: int) -> tuple[int, BurnSchedule]:
    """Burn as many points as possible in q steps from designated sources.

    Group rho in {0..q-1} offers, per source, the points its fire burns in
    rho steps (the ``fire_masks`` that ``exact_max_burn`` reads); a greedy
    picks at most one set per group and each source once, igniting source
    s with multiplier rho at step q - rho.  At least half the best count.
    """
    if inst.sources is None:
        raise ValueError("instance designates no sources")
    if q < 0:
        raise ValueError("step count must be non-negative")
    model = Model(POINT)
    if q == 0 or not inst.sources:
        return 0, BurnSchedule(model, q, ())
    table = fire_masks(inst, model, inst.sources)
    groups = [[m for _, m in table(rho)] for rho in range(q)]
    picks = max_coverage_groups(groups, [inst.sources] * q)
    covered = 0
    sources = []
    for rho, pos in picks:
        si = inst.sources[pos]
        covered |= groups[rho][pos]
        sources.append(BurnSource(inst.points[si], q - rho, inst.rates[si]))
    return covered.bit_count(), BurnSchedule(model, q, tuple(sources))
