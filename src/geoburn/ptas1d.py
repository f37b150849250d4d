"""Burning schedules for points on a line, within any wanted ratio.

The solver guesses the horizon delta in increasing order.  A schedule of
delta steps yields fire radii delta-1, ..., 1, 0, so the guess is feasible
exactly when intervals of those radii can cover the input.  To decide that
quickly the radii are rounded up into t = ceil(2 / epsilon) groups (group j
lends every member radius j * delta / t), and the relaxed multiset is
checked against a sweep from the rightmost uncovered point.  Each move of
the sweep places one ball and leaves a prefix of the points uncovered, and
that prefix never decreases as the prefix before the move grows.  So among
the orders spending one multiset of balls, the one leaving the smallest
prefix dominates, and a table with one entry per multiset of spent balls
decides feasibility exactly; only an accepted guess runs the memoized
sweep that builds the placements.  The rounding only enlarges radii, so a
rejected guess is genuinely below the true burning number, and the first
accepted guess needs at most delta * (1 + epsilon) + 1 steps to realize,
giving ratio 1 + epsilon + 1 / delta*.

When the guess is smaller than the group count, groups degenerate to
singletons carrying the exact radii delta-1, ..., 0 and the check becomes
exact; the horizon formula keeps using the nominal t.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

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
)


@dataclass(frozen=True)
class GroupSpec:
    """Rounded radius multiset for one guess: sizes[j] balls of radii[j]."""

    delta: int
    t: int
    sizes: tuple[int, ...]
    radii: tuple[float, ...]

    @property
    def exact(self) -> bool:
        return self.t > self.delta


def build_groups(delta: int, t: int) -> GroupSpec:
    """Group the radii of a delta-step schedule into at most t classes.

    Interval i (1-based, true radius i - 1) joins group ceil(i * t / delta);
    group j is rounded up to radius j * delta / t.  With t above delta the
    groups are singletons at the exact radii instead.
    """
    if delta < 1 or t < 1:
        raise ValueError("delta and t must be positive")
    if t > delta:
        return GroupSpec(delta, t, (1,) * delta,
                         tuple(float(j) for j in range(delta)))
    sizes = [0] * t
    for i in range(1, delta + 1):
        sizes[-(-i * t // delta) - 1] += 1
    radii = tuple(j * delta / t for j in range(1, t + 1))
    return GroupSpec(delta, t, tuple(sizes), radii)


def _move(xs: list[float], prefix: int, radius: float, point_model: bool
          ) -> tuple[float, int]:
    """Place one ball for the rightmost uncovered point xs[prefix - 1].

    The ball ends exactly there (centers free) or sits on the leftmost
    input point still reaching it (centers on input points).  Returns its
    center and the prefix of xs it leaves uncovered.
    """
    z = xs[prefix - 1]
    if point_model:
        center = xs[bisect_left(xs, z - radius - TOL)]
    else:
        center = z - radius
    return center, bisect_left(xs, center - radius - TOL)


def _coverable(xs: list[float], spec: GroupSpec, point_model: bool) -> bool:
    """Whether some order of spending the grouped balls covers sorted xs.

    best[U] is the smallest prefix left uncovered by any order of spending
    the multiset U of balls (U[j] <= sizes[j], one mixed-radix int per U).
    A move's new prefix never decreases as the prefix grows, so the order
    reaching best[U] also reaches the smallest prefix after any further
    move, and the table decides exactly what the exhaustive sweep decides.
    """
    if not xs:
        return True
    sizes = spec.sizes
    g = len(sizes)
    strides = []
    total = 1
    for size in sizes:
        strides.append(total)
        total *= size + 1
    # best[0] leaves the whole line; every move covers the point it is
    # placed for, so each other entry ends below len(xs)
    best = [len(xs)] * total
    digits = [0] * g
    for idx in range(total):
        prefix = best[idx]
        for j in range(g):
            if digits[j] < sizes[j]:
                new_prefix = _move(xs, prefix, spec.radii[j], point_model)[1]
                if new_prefix == 0:
                    return True
                if new_prefix < best[idx + strides[j]]:
                    best[idx + strides[j]] = new_prefix
        for j in range(g):  # advance digits to the next index
            if digits[j] < sizes[j]:
                digits[j] += 1
                break
            digits[j] = 0
    return False


def cover_line(xs: list[float], spec: GroupSpec, point_model: bool
               ) -> list[tuple[float, float]] | None:
    """Cover sorted xs with the grouped radius multiset, or None.

    A table over the multisets of spent balls (``_coverable``) first
    decides whether any cover exists, so a rejected guess costs one entry
    per multiset.  Only an accepted guess runs the memoized sweep, which
    places balls from the right with ``_move``, larger groups first.
    Returns (center, radius) placements.
    """
    if not _coverable(xs, spec, point_model):
        return None
    n = len(xs)
    g = len(spec.sizes)
    start = tuple(spec.sizes)
    failed: set[tuple] = set()
    placements: list[tuple[float, float]] = []

    def sweep(prefix: int, left: tuple[int, ...]) -> bool:
        if prefix == 0:
            return True
        key = (prefix, left)
        if key in failed:
            return False
        for j in range(g - 1, -1, -1):
            if left[j] == 0:
                continue
            radius = spec.radii[j]
            center, new_prefix = _move(xs, prefix, radius, point_model)
            placements.append((center, radius))
            spent = left[:j] + (left[j] - 1,) + left[j + 1:]
            if sweep(new_prefix, spent):
                return True
            placements.pop()
        failed.add(key)
        return False

    if not sweep(n, start):
        return None
    return list(placements)


def ptas_burning_line(inst: Instance, model: Model | None = None,
                      epsilon: float = 1.0
                      ) -> tuple[int, BurnSchedule, GuessTrace]:
    """Approximate burning schedule for a 1-dimensional instance.

    Requires uniform rates and one ignition per step.  Returns the horizon,
    a schedule valid for it, and the trace of guesses; the horizon is at
    most (1 + epsilon) * delta* + 1.
    """
    model = model or Model(POINT)
    if inst.dimension != 1:
        raise ValueError("instance must be 1-dimensional")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if model.k != 1:
        raise ValueError("one ignition per step only")
    if not inst.uniform_rates():
        raise ValueError("uniform rates required")
    point_model = model.tag == POINT

    t = math.ceil(2.0 / epsilon)
    trace = GuessTrace(constants={"epsilon": epsilon, "group_count": float(t)})
    if inst.n == 0:
        return 0, BurnSchedule(model, 0, ()), trace

    rate = inst.rates[0]
    xs = sorted(p.x / rate for p in inst.points)
    delta = 0
    while True:
        delta += 1
        spec = build_groups(delta, t)
        placements = cover_line(xs, spec, point_model)
        measure = float(len(placements)) if placements is not None else math.inf
        if trace.log(delta, measure, float(delta)):
            break

    horizon = delta + -(-2 * delta // t)
    placements.sort(key=lambda cr: (-cr[1], cr[0]))
    sources = tuple(
        BurnSource(Point(center * rate, 0.0), step, rate)
        for step, (center, _) in enumerate(placements, start=1))
    return horizon, BurnSchedule(model, horizon, sources), trace
