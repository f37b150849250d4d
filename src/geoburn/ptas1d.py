"""Burning schedules for points on a line, within any wanted ratio.

The solver guesses the horizon delta in increasing order.  A schedule of
delta steps yields fire radii delta-1, ..., 1, 0, so the guess is feasible
exactly when intervals of those radii can cover the input.  To decide that
quickly the radii are rounded up into t = ceil(2 / epsilon) groups (group j
lends every member radius j * delta / t), and the relaxed multiset is
placed from the rightmost uncovered point leftward.  Each placement leaves
a prefix of the points uncovered, and that prefix never decreases as the
prefix before it grows, so the prefixes a multiset of balls can finish are
exactly those up to the largest one.  One table of these largest prefixes,
with one entry per multiset, decides the guess exactly, and a walk down
the table builds the placements without backtracking.  The rounding only
enlarges radii, so a rejected guess is genuinely below the true burning
number, and the first accepted guess needs at most delta * (1 + epsilon)
+ 1 steps to realize, giving ratio 1 + epsilon + 1 / delta*.

When the guess is smaller than the group count, groups degenerate to
singletons carrying the exact radii delta-1, ..., 0 and the check becomes
exact; the horizon formula keeps using the nominal t.

Before any table is built, a guess whose balls are too short in total to
span the points is rejected by a length bound (``too_short``).  Any cover
of the sorted points by the guess's d balls splits them into at most d
runs, each inside one ball: a ball's points are contiguous in sorted
order, because the burn test reads the rounded difference fl(x - c),
which is monotone in x.  A ball of reach a = R + TOL holds only points at
most 2a (1 + 2^-52) apart in real numbers, so the runs' extents add up to
at most the sum of size_j * 2 (R_j + TOL) (1 + 2^-52) over the groups.
They also add up to every gap but the at most d - 1 gaps between runs, so
to at least the sum of the n - d smallest gaps.  When the first sum falls
below the second, no cover exists and the table would reject the guess
too, so the rejection is logged as the same size entry.  Both sums are
running float sums of nonnegative terms, each within one rounding per
term of the real sum; the comparison's margins, 2^-40 each way plus
2^-52 per term, cover those roundings and the 2^-52 above.  A running
sum that overflows is, up to those roundings, at least the largest
float, so the gap side is held there; the length side, at inf, never
rejects.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

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
    check_epsilon,
    within,
)
from geoburn.cover import line_fire_centers
from geoburn.oracle import DEFAULT_NODE_BUDGET, CapacityError


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


def _first_within(arr: np.ndarray, v: np.ndarray, reach: np.ndarray) -> np.ndarray:
    # per entry of v, the first index of sorted arr whose point is
    # ``within`` reach of it: a searchsorted guess, right up to rounding,
    # moved a run of equal points at a time until it is exact
    i = np.searchsorted(arr, v - reach)
    while True:
        prev, cur = arr[i - 1], arr[np.minimum(i, len(arr) - 1)]  # prev unused at i = 0
        back = (i > 0) & within(v - prev, reach)
        ahead = (i < len(arr)) & ~back & ~within(v - cur, reach)
        if not (back.any() or ahead.any()):
            return i
        i = np.where(back, np.searchsorted(arr, prev), i)
        i = np.where(ahead, np.searchsorted(arr, cur, side="right"), i)


def gap_spans(xs: list[float]) -> list[float]:
    """Running sums of the gaps between sorted xs, smallest gap first.

    Entry k - 1 sums the k smallest gaps, left to right in floats.  A sum
    that overflows is held at the largest float.
    """
    with np.errstate(over="ignore"):
        return np.minimum(np.cumsum(np.sort(np.diff(xs))), sys.float_info.max).tolist()


def too_short(spec: GroupSpec, spans: list[float]) -> bool:
    """True when spec's balls are too short in total to span the points.

    spans is ``gap_spans`` of the sorted points.  The balls' summed
    diameters at the validator's reach R + TOL fall below the sum of the
    n - delta smallest gaps (module docstring), so ``cover_line`` would
    return None.  An overflowed length is inf and never rejects.
    """
    keep = len(spans) + 1 - spec.delta
    if keep <= 0:
        return False
    length = sum((size * 2.0 * (radius + TOL)
                  for size, radius in zip(spec.sizes, spec.radii)), 0.0)
    # 2^-40 each way, and 2^-52 more per term that either running sum rounds
    return (length * (1.0 + 2.0 ** -40 + len(spec.sizes) * 2.0 ** -52)
            < spans[keep - 1] * (1.0 - 2.0 ** -40 - len(spans) * 2.0 ** -52))


def cover_line(xs: list[float], spec: GroupSpec, point_model: bool
               ) -> list[tuple[float, float]] | None:
    """Cover sorted xs with the grouped radius multiset, or None.

    A move of group j places one ball for the rightmost uncovered point
    xs[p - 1]: the ball ends there (centers free; its center is the
    point's ``cover.line_fire_centers`` entry) or sits on the leftmost
    input point reaching it (centers on input points), and leaves the
    prefix after[j][p - 1] uncovered, all by the validator's burn test
    (``core.within`` at radius + TOL).  cov[U] is the largest
    prefix that the multiset U of balls (U[j] <= sizes[j], one mixed-radix
    int per U) covers, built up from cov[0] = 0 through reach[j][c], the
    largest prefix whose group-j move lands within c; the guess is
    feasible iff cov[sizes] is all of xs.  The walk down from
    (len(xs), sizes) then takes at each step the first group, larger radii
    first, whose move lands within what the balls left cover, which is
    the first success of the backtracking sweep in that order.  Returns
    (center, radius) placements.  Raises CapacityError, before building
    anything, when the table would hold more than the oracles' default
    node budget of entries (in the exact regime it holds 2^delta).
    """
    sizes = spec.sizes
    g = len(sizes)
    strides = []
    total = 1
    for size in sizes:
        strides.append(total)
        total *= size + 1
    if total > DEFAULT_NODE_BUDGET:
        raise CapacityError(
            f"line table of {total} entries exceeds the budget of {DEFAULT_NODE_BUDGET}")
    n = len(xs)
    arr = np.asarray(xs, dtype=float)
    radii = np.asarray(spec.radii, dtype=float)[:, None]
    reaches = radii + TOL
    with np.errstate(over="ignore"):
        if point_model:
            centers = arr[_first_within(arr, arr, reaches)]
        else:
            centers = line_fire_centers(arr, radii)
        after = _first_within(arr, centers, reaches)
    # each row of after never decreases, so the count of prefixes whose
    # move lands within c is also the largest of them
    reach = [np.bincount(row, minlength=n + 1).cumsum().tolist()
             for row in after]

    cov = [0] * total
    digits = [0] * g
    for idx in range(1, total):
        for j in range(g):  # advance digits to idx
            if digits[j] < sizes[j]:
                digits[j] += 1
                break
            digits[j] = 0
        cov[idx] = max([rj[cov[idx - s]]
                        for rj, s, d in zip(reach, strides, digits) if d])
    if cov[-1] < n:
        return None

    placements = []
    prefix, idx = n, total - 1
    left = list(sizes)
    while prefix:
        j = next(j for j in range(g - 1, -1, -1) if left[j] and
                 after[j][prefix - 1] <= cov[idx - strides[j]])
        placements.append((centers[j][prefix - 1].item(), spec.radii[j]))
        prefix = int(after[j][prefix - 1])
        idx -= strides[j]
        left[j] -= 1
    return placements


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
    check_epsilon(epsilon)
    if model.k != 1:
        raise ValueError("one ignition per step only")
    if not inst.uniform_rates():
        raise ValueError("uniform rates required")
    point_model = model.tag == POINT

    t = math.ceil(2.0 / epsilon)
    trace = GuessTrace(constants={"epsilon": epsilon, "group_count": float(t)})
    if inst.n == 0:
        return 0, BurnSchedule(model, 0, ()), trace

    # the radii in input units: a fire spreading r steps reaches rate * r
    rate = inst.rates[0]
    xs = sorted(p.x for p in inst.points)
    spans = gap_spans(xs)

    def attempt(d):
        spec = build_groups(d, t)
        spec = replace(spec, radii=tuple(rate * r for r in spec.radii))
        if too_short(spec, spans):
            return None, float(d)
        return cover_line(xs, spec, point_model), float(d)

    delta, placements = trace.search(attempt)
    horizon = delta + -(-2 * delta // t)
    placements.sort(key=lambda cr: (-cr[1], cr[0]))
    sources = tuple(BurnSource(Point(center, 0.0), step, rate)
                    for step, (center, _) in enumerate(placements, start=1))
    return horizon, BurnSchedule(model, horizon, sources), trace
