"""Data model and burning-process semantics shared by every solver.

The process: at integer steps 1..T a schedule ignites sources; a source
ignited at step ``i`` with spread rate ``r`` has fire radius ``r * (T - i)``
once ``T`` steps have elapsed.  A point is burned iff some source's final
radius reaches it (closed disks, additive tolerance ``TOL``).

One predicate decides "burns" everywhere: a fire at (cx, cy) with reach
``radius + TOL`` holds (px, py) iff ``math.hypot(px - cx, py - cy) <=
reach``.  ``burns`` and ``is_burned`` make that test one pair at a time,
``within`` over arrays, and ``reach_masks`` turns it into coverage bitmasks
for the validator, the fire masks of ``cover`` and the pipelines.

Two placement models:

* ``point``    -- sources must be distinct input points, each unburnt at its
                  ignition step; up to ``k`` ignitions per step.
* ``anywhere`` -- sources may be placed at arbitrary plane locations.

``validate_schedule`` is the arbiter used as a post-condition by all
approximation pipelines and as ground truth for the exact solvers.  Igniting
an already-burnt point in the point model is reported as a *warning*
(``ignite-burnt-point``) rather than a fatal violation.  ``point_burning``
and ``k_burning_nonuniform`` drop every such ignition except where the drop
would lose a point: under different rates a fast source ignited inside a
slow fire can reach beyond it, and is then kept.  Under uniform rates the
triangle inequality puts the later fire's final disk inside the earlier
one's (up to ``TOL``), so nearly every such ignition goes.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import reduce
from operator import or_
from typing import Callable, Sequence, Sized

import numpy as np

TOL = 1e-9  # additive tolerance for every containment / coincidence check

POINT = "point"
ANYWHERE = "anywhere"

_MODEL_TAGS = (POINT, ANYWHERE)


# slotted: schedules and candidate lists hold many of these
@dataclass(frozen=True, order=True, slots=True)
class Point:
    x: float
    y: float = 0.0

    def __iter__(self):
        yield self.x
        yield self.y


def distance(a: Point, b: Point) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


@dataclass(frozen=True, slots=True)
class Model:
    """Placement model: ``tag`` in {point, anywhere}, ``k`` ignitions per step."""

    tag: str = POINT
    k: int = 1

    def __post_init__(self) -> None:
        if self.tag not in _MODEL_TAGS:
            raise ValueError(f"unknown model tag {self.tag!r}")
        if self.k < 1:
            raise ValueError("k must be a positive integer")


@dataclass(frozen=True)
class Instance:
    """An input point set, optional per-point spread rates, optional sources.

    Values are immutable after construction.  ``sources`` is an optional
    subset of point indices used by the max-burn problem.  For
    ``dimension == 1`` every point must lie on the x-axis.  Duplicate
    coordinates are allowed here (file loading and the generators
    deduplicate; programmatic construction preserves the given list).
    """

    points: tuple[Point, ...]
    rates: tuple[float, ...] = ()
    sources: tuple[int, ...] | None = None
    dimension: int = 2
    name: str = ""
    seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))
        rates = tuple(self.rates) if self.rates else (1.0,) * len(self.points)
        object.__setattr__(self, "rates", rates)
        if self.sources is not None:
            object.__setattr__(self, "sources", tuple(self.sources))
        if self.dimension not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        if len(self.rates) != len(self.points):
            raise ValueError("rates length must match point count")
        for r in self.rates:
            if not (r > 0.0) or not math.isfinite(r):
                raise ValueError(f"rates must be positive and finite, got {r}")
        for p in self.points:
            if not (math.isfinite(p.x) and math.isfinite(p.y)):
                raise ValueError("point coordinates must be finite")
            if self.dimension == 1 and p.y != 0.0:
                raise ValueError("1-dimensional instances must have y == 0")
        if self.sources is not None:
            if len(set(self.sources)) != len(self.sources):
                raise ValueError("source indices must be distinct")
            for i in self.sources:
                if not 0 <= i < len(self.points):
                    raise ValueError(f"source index {i} out of range")

    @classmethod
    def line(cls, xs, rates=(), sources=None, name: str = "", seed=None) -> "Instance":
        pts = tuple(Point(float(x), 0.0) for x in xs)
        return cls(pts, tuple(rates), sources, dimension=1, name=name, seed=seed)

    @classmethod
    def planar(cls, coords, rates=(), sources=None, name: str = "", seed=None) -> "Instance":
        pts = tuple(Point(float(x), float(y)) for x, y in coords)
        return cls(pts, tuple(rates), sources, dimension=2, name=name, seed=seed)

    @property
    def n(self) -> int:
        return len(self.points)

    def uniform_rates(self) -> bool:
        return all(r == self.rates[0] for r in self.rates)

    def rate_ratio(self) -> float:
        """Largest pairwise rate ratio h = max r_i / min r_j (1.0 if empty)."""
        if not self.rates:
            return 1.0
        return max(self.rates) / min(self.rates)


@dataclass(frozen=True, slots=True)
class BurnSource:
    center: Point
    step: int  # ignition step, 1-based
    rate: float = 1.0


@dataclass(frozen=True, slots=True)
class BurnSchedule:
    model: Model
    total_steps: int
    sources: tuple[BurnSource, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sources", tuple(self.sources))
        if self.total_steps < 0:
            raise ValueError("total_steps must be >= 0")


def burn_radius(source: BurnSource, total_steps: int) -> float:
    """Final fire radius of a source after ``total_steps`` steps."""
    if source.step > total_steps:
        raise ValueError(
            f"ignition step {source.step} exceeds horizon {total_steps}"
        )
    return source.rate * (total_steps - source.step)


def _settle(d2: np.ndarray, reach: np.ndarray, exact: Callable[[tuple], bool]) -> np.ndarray:
    # the squares decide outside a band 16 ulps wide around reach^2, where
    # their rounding cannot flip hypot's verdict; exact(index) decides in
    # it, and wherever reach lies outside [2^-480, 2^480], where a square
    # could overflow or lose bits: r2 is NaN there, so neither test holds
    # (an overflowed d2 lies beyond any other reach)
    r2 = np.where((reach >= 2.0 ** -480) & (reach <= 2.0 ** 480), reach * reach, np.nan)
    hit = d2 < r2 * (1.0 - 2.0 ** -48)
    far = d2 > r2 * (1.0 + 2.0 ** -48)
    if np.count_nonzero(hit) + np.count_nonzero(far) != hit.size:
        for k in zip(*np.nonzero(~(hit | far))):
            hit[k] = exact(k)
    return hit


def within(dx, dy, reach) -> np.ndarray:
    """``math.hypot(dx, dy) <= reach`` elementwise over broadcast arrays, exactly."""
    dx, dy, reach = (np.asarray(a, dtype=float) for a in (dx, dy, reach))

    def exact(k: tuple) -> bool:
        x, y, r = np.broadcast_arrays(dx, dy, reach)
        return math.hypot(x[k], y[k]) <= r[k]

    with np.errstate(over="ignore"):
        return _settle(dx * dx + dy * dy, reach, exact)


def _coords(points: Sequence[Point] | np.ndarray) -> np.ndarray:
    """Points as an (m, 2) float array; such an array passes straight through."""
    if isinstance(points, np.ndarray):
        return points
    return np.array([[p.x for p in points], [p.y for p in points]], dtype=float).T


def reach_masks(centers: Sequence[Point] | np.ndarray, reaches: Sequence[float] | np.ndarray,
                points: Sequence[Point] | np.ndarray) -> list[int]:
    """Per center, the bitmask of the points ``within`` its reach (radius + TOL).

    Centers and points are Point sequences or (m, 2) float arrays.
    """
    C, P, R = _coords(centers), _coords(points), np.asarray(reaches, dtype=float)[:, None]
    with np.errstate(over="ignore"):
        # one expression, so that numpy reuses its temporaries
        d2 = (P[None, :, 0] - C[:, None, 0]) ** 2 + (P[None, :, 1] - C[:, None, 1]) ** 2
        hit = _settle(d2, R, lambda k: math.hypot(*(P[k[1]] - C[k[0]])) <= R[k[0], 0])
    packed = np.packbits(hit, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def burn_masks(sources: Sequence[BurnSource], step: int, points: Sequence[Point]) -> list[int]:
    """Per source, the bitmask of the points its fire disk at the end of ``step`` holds."""
    return reach_masks([s.center for s in sources],
                       [burn_radius(s, step) + TOL for s in sources], points)


def burns(source: BurnSource, p: Point, step: int) -> bool:
    """Whether ``source``'s fire disk at the end of ``step`` holds ``p``: the one burn test."""
    return distance(p, source.center) <= burn_radius(source, step) + TOL


def is_burned(p: Point, schedule: BurnSchedule) -> bool:
    """Whether ``p`` lies in some source's final fire disk (closed, +TOL)."""
    return any(burns(s, p, schedule.total_steps) for s in schedule.sources)


def check_epsilon(epsilon: float) -> None:
    """Reject an epsilon that is not positive, or whose 2 / epsilon is not finite."""
    if not 0 < epsilon < math.inf or not math.isfinite(2.0 / epsilon):
        raise ValueError(f"epsilon must be positive with 2 / epsilon finite, got {epsilon!r}")


@dataclass(frozen=True, slots=True)
class GuessEntry:
    """One guess of the solvers' outer loop.

    Accepted iff ``measure <= threshold`` (+TOL): the measure is the size
    of the cover or dominating set the guess produced (or the ball count a
    feasibility check needed, infinity when infeasible), the threshold the
    capacity the guess allows.
    """

    delta: int
    measure: float
    threshold: float
    accepted: bool


@dataclass
class GuessTrace:
    """A solver run's guesses, logged by the one guess loop ``search``, and constants."""

    entries: list[GuessEntry] = field(default_factory=list)
    constants: dict[str, float] = field(default_factory=dict)

    def search(self, attempt: Callable[[int], tuple[Sized | None, float]]
               ) -> tuple[int, Sized]:
        """Log delta = 1, 2, ... and return the first accepted one with its result.

        ``attempt(delta)`` returns the guess's result (None when it has
        none) and threshold; the measure is its size, infinity for None.
        """
        delta = 0
        while True:
            delta += 1
            result, threshold = attempt(delta)
            measure = math.inf if result is None else float(len(result))
            accepted = measure <= threshold + TOL
            self.entries.append(GuessEntry(delta, measure, threshold, accepted))
            if accepted:
                return delta, result

    @property
    def accepted_delta(self) -> int:
        for e in self.entries:
            if e.accepted:
                return e.delta
        raise ValueError("trace holds no accepted guess")


@dataclass(frozen=True)
class Violation:
    rule: str
    message: str


@dataclass(slots=True)
class ValidationReport:
    """Outcome of validate_schedule.

    ``valid`` iff ``unburned`` and ``violations`` are both empty;
    ``warnings`` (the ``ignite-burnt-point`` class) never affect validity.
    """

    valid: bool
    unburned: list[int] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)
    warnings: list[Violation] = field(default_factory=list)

    def summary(self) -> str:
        if self.valid and not self.warnings:
            return "valid"
        parts = ["valid" if self.valid else "INVALID"]
        if self.unburned:
            parts.append(f"{len(self.unburned)} unburned: {self.unburned}")
        for v in self.violations:
            parts.append(f"{v.rule}: {v.message}")
        for w in self.warnings:
            parts.append(f"warning {w.rule}: {w.message}")
        return "; ".join(parts)


def _match_sources_to_points(inst: Instance, sched: BurnSchedule, report: ValidationReport) -> None:
    # each point-model source must sit on its own instance point (within
    # TOL): the lowest-index one not yet taken.  Points are indexed by x
    # once; a point within TOL of a source lies inside the source's x
    # window of 2 TOL each way (rounding is monotone), so only that window
    # is tested.
    xs = [p.x for p in inst.points]
    order = sorted(range(len(xs)), key=xs.__getitem__)
    xs = [xs[i] for i in order]
    taken: set[int] = set()
    for s in sched.sources:
        c = s.center
        lo = bisect.bisect_left(xs, c.x - 2 * TOL)
        hi = bisect.bisect_right(xs, c.x + 2 * TOL)
        near = [i for i in order[lo:hi] if distance(inst.points[i], c) <= TOL]
        free = [i for i in near if i not in taken]
        if free:
            taken.add(min(free))
        elif near:
            report.violations.append(Violation(
                "duplicate-instance-point",
                f"two sources ignite the instance point at ({c.x}, {c.y})",
            ))
        else:
            report.violations.append(Violation(
                "off-instance-point",
                f"source at ({c.x}, {c.y}) matches no instance point",
            ))


# Point indices listed in ``ValidationReport.unburned`` are taken from this
# one tuple (grown on demand), so a report kept alive holds one pointer per
# index instead of a fresh int object of its own.
_INDICES: tuple[int, ...] = ()


def _shared_indices(n: int) -> tuple[int, ...]:
    global _INDICES
    if len(_INDICES) < n:
        _INDICES = tuple(range(max(n, 2 * len(_INDICES))))
    return _INDICES


def validate_schedule(inst: Instance, sched: BurnSchedule) -> ValidationReport:
    """Check a schedule against an instance.

    Fatal violations: ignition step outside 1..T, more than ``k`` ignitions
    in one step, a point-model source off the instance points or doubled up.
    Point-model sources already burnt at their ignition step (by end-of-step
    radii of earlier sources) are reported as ``ignite-burnt-point``
    warnings.  ``unburned`` lists instance points no final fire disk reaches.
    """
    report = ValidationReport(valid=True)
    T = sched.total_steps
    per_step: dict[int, int] = {}
    for s in sched.sources:
        if not 1 <= s.step <= T:
            report.violations.append(Violation(
                "step-range", f"ignition step {s.step} outside 1..{T}"))
        else:
            per_step[s.step] = per_step.get(s.step, 0) + 1
    for step, count in sorted(per_step.items()):
        if count > sched.model.k:
            report.violations.append(Violation(
                "step-capacity",
                f"{count} ignitions at step {step} exceed k={sched.model.k}"))

    if sched.model.tag == POINT:
        _match_sources_to_points(inst, sched, report)
        ordered = sorted(sched.sources, key=lambda s: s.step)
        for i, s in enumerate(ordered):
            for earlier in ordered[:i]:
                if earlier.step < s.step and burns(earlier, s.center, s.step):
                    report.warnings.append(Violation(
                        "ignite-burnt-point",
                        f"source at ({s.center.x}, {s.center.y}) step {s.step} "
                        f"already burnt by step-{earlier.step} fire"))
                    break

    if not report.violations:
        n = len(inst.points)
        burnt = reduce(or_, burn_masks(sched.sources, T, inst.points), 0)
        bits, index = f"{burnt:0{n}b}"[::-1][:n], _shared_indices(n)  # bit i at [i]
        report.unburned = [index[i] for i, b in enumerate(bits) if b == "0"]
    report.valid = not report.violations and not report.unburned
    return report
