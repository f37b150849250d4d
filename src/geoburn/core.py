"""Data model and burning-process semantics shared by every solver.

The process: at integer steps 1..T a schedule ignites sources; a source
ignited at step ``i`` with spread rate ``r`` has fire radius ``r * (T - i)``
once ``T`` steps have elapsed.  A point is burned iff some source's final
radius reaches it (closed disks, additive tolerance ``TOL``).

Two placement models:

* ``point``    -- sources must be distinct input points, each unburnt at its
                  ignition step; up to ``k`` ignitions per step.
* ``anywhere`` -- sources may be placed at arbitrary plane locations.

``validate_schedule`` is the arbiter used as a post-condition by all
approximation pipelines and as ground truth for the exact solvers.  Igniting
an already-burnt point in the point model is reported as a *warning*
(``ignite-burnt-point``) rather than a fatal violation: the covering-style
pipelines may emit such schedules, and the fire they produce is unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


def is_burned(p: Point, schedule: BurnSchedule) -> bool:
    """Whether ``p`` lies in some source's final fire disk (closed, +TOL)."""
    for s in schedule.sources:
        if distance(p, s.center) <= burn_radius(s, schedule.total_steps) + TOL:
            return True
    return False


@dataclass(frozen=True)
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
    """Full record of a solver run: every guess plus the constants used."""

    entries: list[GuessEntry] = field(default_factory=list)
    constants: dict[str, float] = field(default_factory=dict)

    def log(self, delta: int, measure: float, threshold: float) -> bool:
        accepted = measure <= threshold + TOL
        self.entries.append(GuessEntry(delta, measure, threshold, accepted))
        return accepted

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


@dataclass
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
        parts = []
        parts.append("valid" if self.valid else "INVALID")
        if self.unburned:
            parts.append(f"{len(self.unburned)} unburned: {self.unburned}")
        for v in self.violations:
            parts.append(f"{v.rule}: {v.message}")
        for w in self.warnings:
            parts.append(f"warning {w.rule}: {w.message}")
        return "; ".join(parts)


def _match_sources_to_points(inst: Instance, sched: BurnSchedule, report: ValidationReport) -> None:
    # each point-model source must sit on its own instance point (within TOL)
    taken: set[int] = set()
    for s in sched.sources:
        hit = None
        dup_only = False
        for i, p in enumerate(inst.points):
            if distance(p, s.center) <= TOL:
                if i in taken:
                    dup_only = True
                else:
                    hit = i
                    break
        if hit is not None:
            taken.add(hit)
        elif dup_only:
            report.violations.append(Violation(
                "duplicate-instance-point",
                f"two sources ignite the instance point at ({s.center.x}, {s.center.y})",
            ))
        else:
            report.violations.append(Violation(
                "off-instance-point",
                f"source at ({s.center.x}, {s.center.y}) matches no instance point",
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
                if earlier.step >= s.step:
                    continue
                reach = earlier.rate * (s.step - earlier.step)
                if distance(s.center, earlier.center) <= reach + TOL:
                    report.warnings.append(Violation(
                        "ignite-burnt-point",
                        f"source at ({s.center.x}, {s.center.y}) step {s.step} "
                        f"already burnt by step-{earlier.step} fire"))
                    break

    ok_structure = not report.violations
    if ok_structure:
        index = _shared_indices(len(inst.points))
        for i, p in enumerate(inst.points):
            if not is_burned(p, sched):
                report.unburned.append(index[i])
    report.valid = not report.violations and not report.unburned
    return report
