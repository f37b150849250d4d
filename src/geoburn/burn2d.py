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
* max_burn_schedule: grouped greedy over radius multipliers; burns at
  least half of the best achievable count.

With strict_oracle the guesses use exact minimum covers / dominating sets
(bounded-size decision searches) instead of greedy ones.
"""

from __future__ import annotations

import math

from geoburn.core import (
    ANYWHERE,
    POINT,
    TOL,
    BurnSchedule,
    BurnSource,
    GuessTrace,
    Instance,
    Model,
    Point,
    distance,
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
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if uniform and not inst.uniform_rates():
        raise ValueError("uniform rates required")


def _guess_cover(pts, epsilon, strict, candidates, trace):
    # shared guess loop: smallest delta whose radius-delta cover fits
    # within delta * (1 + epsilon) disks
    delta = 0
    while True:
        delta += 1
        threshold = delta * (1.0 + epsilon)
        if strict:
            got = exact_disk_cover(pts, float(delta),
                                   max_size=_ifloor(threshold),
                                   candidates=candidates)
            measure = math.inf if got is None else float(len(got))
        else:
            got = disk_cover_approx(pts, float(delta), epsilon,
                                    candidates=candidates)
            measure = float(len(got))
        if trace.log(delta, measure, threshold):
            return delta, sorted(got)


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
    rate = inst.rates[0]
    pts = [Point(p.x / rate, p.y / rate) for p in inst.points]
    cands = None
    if not strict_oracle:
        n = len(pts)
        cands = candidate_centers(pts, midpoints=n <= 150,
                                  circumcenters=n <= 40)
    delta, centers = _guess_cover(pts, epsilon, strict_oracle, cands, trace)

    m = len(centers)
    n1 = _iceil(PHASE1_FRACTION * m)
    horizon = n1 + _iceil(delta * (1.0 + epsilon))
    sources = []
    for step, c in enumerate(centers[:n1], start=1):
        sources.append(BurnSource(Point(c.x * rate, c.y * rate), step, rate))
    step = n1
    for c in centers[n1:]:
        for tp in scaled_template(c, float(delta)):
            step += 1
            sources.append(BurnSource(Point(tp.x * rate, tp.y * rate), step, rate))
    # every template fire must still reach its 0.6094-delta share
    assert horizon - step + 1e-9 >= TEMPLATE_FRACTION * delta, \
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
    rate = inst.rates[0]
    pts = [Point(p.x / rate, p.y / rate) for p in inst.points]
    delta, centers = _guess_cover(pts, epsilon, strict_oracle, pts, trace)

    m = len(centers)
    extra = _iceil(ANNULUS_INNER_FRACTION * delta * (1.0 + epsilon))
    horizon = m + extra
    # ignite the instance points themselves, not their rescaled copies
    unscaled = dict(zip(pts, inst.points))
    sources = [BurnSource(unscaled[c], step, rate)
               for step, c in enumerate(centers, start=1)]

    burned: set[int] = set()
    for step, c in enumerate(centers, start=1):
        reach = float(horizon - step)
        for i, p in enumerate(pts):
            if distance(p, c) <= reach + TOL:
                burned.add(i)

    # fires younger than delta leave an outer annulus: patch each occupied
    # thirteenth-sector by igniting its lowest-index leftover point
    late_count = min(m, max(0, delta - extra))
    reps: list[int] = []
    taken: set[int] = set()
    for c in centers[m - late_count:m]:
        for zone in range(ZONE_COUNT):
            for i, p in enumerate(pts):
                if i in burned or i in taken:
                    continue
                if zone_of(p, c, float(delta)) == zone:
                    taken.add(i)
                    reps.append(i)
                    break
    assert len(reps) <= extra, "annulus fires ran past the horizon"
    for j, i in enumerate(reps):
        sources.append(BurnSource(inst.points[i], m + 1 + j, rate))
    if reps:
        assert extra - len(reps) + 1e-9 >= LATE_REACH_FRACTION * delta, \
            "an annulus fire cannot span its zone"
    sources = _drop_burnt_ignitions(inst.points, horizon, sources)
    return horizon, BurnSchedule(model, horizon, tuple(sources)), trace


def _drop_burnt_ignitions(points, horizon: int,
                          sources: list[BurnSource]) -> list[BurnSource]:
    # Drop every source (given in step order) whose point an earlier kept
    # fire has reached by its ignition step, by the validator's test:
    # within that fire's rate * (step gap) + TOL, when that earlier fire
    # alone burns every point the dropped one would.  The horizon and
    # the other steps stay.  The drop is checked point by point with the
    # burn test, which assumes nothing about the rates: a source whose
    # drop would lose a point is kept.  Under one uniform rate the
    # triangle inequality puts the dropped fire's final disk inside the
    # earlier one's, up to the TOL overshoot of the centers' distance (a
    # point the dropped fire burns at +TOL may lie up to 2 TOL outside
    # the earlier disk), so nearly every such source goes.  A faster
    # later fire can reach beyond the earlier one and is then kept.
    kept: list[BurnSource] = []
    for s in sources:
        burnt_by = [e for e in kept if e.step < s.step
                    and distance(s.center, e.center)
                    <= e.rate * (s.step - e.step) + TOL]
        if burnt_by:
            mine = [p for p in points if distance(p, s.center)
                    <= s.rate * (horizon - s.step) + TOL]
            if any(all(distance(p, e.center)
                       <= e.rate * (horizon - e.step) + TOL for p in mine)
                   for e in burnt_by):
                continue
        kept.append(s)
    return kept


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

    delta = 0
    while True:
        delta += 1
        radii = [(delta - 1) / 2.0 * r for r in inst.rates]
        nbrs = disk_graph(pts, radii)
        threshold = k * delta * (1.0 + epsilon)
        if strict_oracle:
            dom = exact_dominating_set(nbrs, max_size=_ifloor(threshold))
            measure = math.inf if dom is None else float(len(dom))
        else:
            dom = dominating_set_greedy(nbrs)
            measure = float(len(dom))
        if trace.log(delta, measure, threshold):
            break

    order = sorted(dom, key=lambda i: pts[i])
    ignite_steps = -(-len(order) // k)
    horizon = ignite_steps + _iceil(h * (delta - 1))
    sources = [BurnSource(pts[i], 1 + j // k, inst.rates[i])
               for j, i in enumerate(order)]
    # a dominator e of p satisfies d(p, e) <= (delta-1)(r_e + r_p)/2, and
    # its fire gets at least h (delta - 1) steps: r_e h >= (r_e + r_p)/2
    for i, p in enumerate(pts):
        assert any(distance(p, s.center) <= s.rate * (horizon - s.step) + TOL
                   for s in sources), "dominating fire fails to reach a point"
    sources = _drop_burnt_ignitions(pts, horizon, sources)
    return horizon, BurnSchedule(model, horizon, tuple(sources)), trace


def point_burning_nonuniform(inst: Instance, epsilon: float = 1.0, *,
                             strict_oracle: bool = False
                             ) -> tuple[int, BurnSchedule, GuessTrace]:
    """k_burning_nonuniform with one ignition per step."""
    return k_burning_nonuniform(inst, 1, epsilon, strict_oracle=strict_oracle)


def max_burn_schedule(inst: Instance, q: int) -> tuple[int, BurnSchedule]:
    """Burn as many points as possible in q steps from designated sources.

    Group rho in {0..q-1} offers, per source, the point set within
    rho times its rate; a greedy picks at most one set per group and each
    source once, igniting source s with multiplier rho at step q - rho.
    The count is at least half the best achievable.
    """
    if inst.sources is None:
        raise ValueError("instance designates no sources")
    if q < 0:
        raise ValueError("step count must be non-negative")
    model = Model(POINT)
    if q == 0 or not inst.sources:
        return 0, BurnSchedule(model, q, ())
    # per source, its points by distance; group rho holds, per source,
    # the points within rho times its rate (+TOL), a prefix of that order
    pts = inst.points
    groups: list[list[int]] = [[] for _ in range(q)]
    for si in inst.sources:
        center, rate = pts[si], inst.rates[si]
        by_dist = sorted((distance(center, p), i) for i, p in enumerate(pts))
        mask, k = 0, 0
        for rho, row in enumerate(groups):
            reach = rho * rate + TOL
            while k < len(by_dist) and by_dist[k][0] <= reach:
                mask |= 1 << by_dist[k][1]
                k += 1
            row.append(mask)
    labels = [inst.sources] * q
    picks = max_coverage_groups(groups, labels)
    covered = 0
    sources = []
    for rho, pos in picks:
        si = inst.sources[pos]
        covered |= groups[rho][pos]
        sources.append(BurnSource(pts[si], q - rho, inst.rates[si]))
    return covered.bit_count(), BurnSchedule(model, q, tuple(sources))
