"""Data model and burning-process semantics shared by every solver.

The process: at integer steps 1..T a schedule ignites sources; a source
ignited at step ``i`` with spread rate ``r`` has fire radius ``r * (T - i)``
once ``T`` steps have elapsed.  A point is burned iff some source's final
radius reaches it (closed disks, additive tolerance ``TOL``).

One predicate decides "burns" everywhere: a fire at (cx, cy) with reach
``radius + TOL`` holds (px, py) iff ``math.hypot(px - cx, py - cy) <=
reach``.  ``burns`` and ``is_burned`` make that test one pair at a time,
``within`` over arrays on a line, where ``math.hypot(dx, 0.0) == abs(dx)``.
The all-pairs kernel has two steps: ``squared_distances`` computes the
center-to-point squares in place, and ``reach_hits``, the one exact pair
test, settles them against one reach per center or per pair (the squares
decide away from the boundary, ``math.hypot`` near it) into a boolean hit
matrix that ``pack_masks`` turns into bitmasks.  ``cover.coverage_masks``
chains the three; ``cover.fire_masks`` computes the squares once per
table and settles them once per radius, and ``cover.disk_graph`` settles
each pair against ``(r_i + r_j) + TOL``.  ``Instance.coords`` is
the instance's (n, 2) coordinate array, built once per instance, which
the fire tables and the validator read.  The validator keeps the columns
of its hit matrix (``burn_hits``) that no fire holds as packed bits, one
bit per point and none when every point burns, which the report's
``unburned`` lists as indices; it matches point-model sources to points
through the x order of ``Instance.coords``.

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

import math
from dataclasses import dataclass, field
from functools import cached_property
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

    @cached_property
    def coords(self) -> np.ndarray:
        """The points as a read-only (n, 2) float array, built once per instance."""
        P = _coords(self.points)
        P.flags.writeable = False
        return P

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


def within(dx, reach) -> np.ndarray:
    """``abs(dx) <= reach`` elementwise: on a line, exactly ``math.hypot(dx, 0.0) <= reach``."""
    return np.abs(dx) <= reach


def _coords(points: Sequence[Point] | np.ndarray) -> np.ndarray:
    """Points as an (m, 2) float array; such an array passes straight through."""
    if isinstance(points, np.ndarray):
        return points
    return np.array([[p.x for p in points], [p.y for p in points]], dtype=float).T


def squared_distances(C: np.ndarray, P: np.ndarray) -> np.ndarray:
    """The (m, n) squared distances from centers C (m, 2) to points P (n, 2).

    Computed in place, with the bits of ``dx ** 2 + dy ** 2``; an
    overflowed square is inf.  ``reach_hits`` settles them against any
    number of reaches.
    """
    with np.errstate(over="ignore"):
        d2 = P[None, :, 0] - C[:, None, 0]
        dy = P[None, :, 1] - C[:, None, 1]
        d2 *= d2
        dy *= dy
        d2 += dy
    return d2


def reach_hits(d2: np.ndarray, reach: np.ndarray, C: np.ndarray, P: np.ndarray) -> np.ndarray:
    """(m, n) booleans: center i's reach holds point j, ``math.hypot``'s exact verdict.

    ``d2`` are ``squared_distances(C, P)``; ``reach`` (radius + TOL)
    broadcasts against them: one per center, shape (m, 1), or one per pair.
    """
    # the squares decide outside a band 16 ulps wide around reach^2, where
    # their rounding cannot flip hypot's verdict; hypot decides in it, and
    # wherever reach lies outside [2^-480, 2^480], where a square could
    # overflow or lose bits: r2 is NaN there, so neither test holds (an
    # overflowed d2 lies beyond any other reach)
    with np.errstate(over="ignore"):
        r2 = np.where((reach >= 2.0 ** -480) & (reach <= 2.0 ** 480), reach * reach, np.nan)
        hit = d2 < r2 * (1.0 - 2.0 ** -48)
        far = d2 > r2 * (1.0 + 2.0 ** -48)
        if np.count_nonzero(hit) + np.count_nonzero(far) != hit.size:
            R = np.broadcast_to(reach, d2.shape)
            for i, j in zip(*np.nonzero(~(hit | far))):
                hit[i, j] = math.hypot(*(P[j] - C[i])) <= R[i, j]
    return hit


def pack_masks(hits: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as a bitmask, column j at bit j."""
    packed = np.packbits(hits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def burn_hits(sources: Sequence[BurnSource], step: int, P: np.ndarray) -> np.ndarray:
    """``reach_hits`` of the sources' fire disks at the end of ``step`` over points P (n, 2)."""
    C = _coords([s.center for s in sources])
    reach = np.array([burn_radius(s, step) + TOL for s in sources], dtype=float)[:, None]
    return reach_hits(squared_distances(C, P), reach, C, P)


def burn_masks(sources: Sequence[BurnSource], step: int, points: Sequence[Point]) -> list[int]:
    """Per source, the bitmask of the points its fire disk at the end of ``step`` holds."""
    return pack_masks(burn_hits(sources, step, _coords(points)))


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
    capacity the guess allows.  When ``kind`` is ``"lower-bound"`` the
    guess built no cover: the measure is a certified lower bound on every
    cover's size, above the threshold, and the guess is rejected.
    """

    delta: int
    measure: float
    threshold: float
    accepted: bool
    kind: str = "size"


@dataclass
class GuessTrace:
    """A solver run's guesses, logged by the one guess loop ``search``, and constants."""

    entries: list[GuessEntry] = field(default_factory=list)
    constants: dict[str, float] = field(default_factory=dict)

    def search(self, attempt: Callable[[int], tuple[Sized | int | None, float]]
               ) -> tuple[int, Sized]:
        """Log delta = 1, 2, ... and return the first accepted one with its result.

        ``attempt(delta)`` returns the guess's result (None when it has
        none) and threshold; the measure is its size, infinity for None.
        An attempt that settles its guess without a result returns, in
        place of the result, an int lower bound above the threshold,
        logged as a ``"lower-bound"`` entry.
        """
        delta = 0
        while True:
            delta += 1
            result, threshold = attempt(delta)
            if isinstance(result, int):
                assert result > threshold + TOL, "a lower bound within the threshold"
                self.entries.append(GuessEntry(delta, float(result), threshold, False,
                                               "lower-bound"))
                continue
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
    The unburned points are kept as packed bits, ``unburned_bits``: point
    i at bit i % 8 of byte i // 8, about n / 8 bytes, and no bytes at all
    when every point burns.  ``unburned`` lists them in ascending order.
    """

    valid: bool
    unburned_bits: bytes = b""
    violations: list[Violation] = field(default_factory=list)
    warnings: list[Violation] = field(default_factory=list)

    @property
    def unburned(self) -> list[int]:
        """Indices of the points no final fire disk reaches, ascending."""
        bits = np.unpackbits(np.frombuffer(self.unburned_bits, dtype=np.uint8),
                             bitorder="little")
        return np.flatnonzero(bits).tolist()

    def summary(self) -> str:
        if self.valid and not self.warnings:
            return "valid"
        parts = ["valid" if self.valid else "INVALID"]
        unburned = self.unburned
        if unburned:
            parts.append(f"{len(unburned)} unburned: {unburned}")
        for v in self.violations:
            parts.append(f"{v.rule}: {v.message}")
        for w in self.warnings:
            parts.append(f"warning {w.rule}: {w.message}")
        return "; ".join(parts)


def _match_sources_to_points(inst: Instance, sched: BurnSchedule, report: ValidationReport) -> None:
    # each point-model source must sit on its own instance point (within
    # TOL): the lowest-index one not yet taken.  A point within TOL of a
    # source lies inside the source's x window of 2 TOL each way (rounding
    # is monotone), so only the points that the x order puts in that
    # window are tested.
    xs = inst.coords[:, 0]
    order = np.argsort(xs)
    xs = xs[order]
    cx = np.array([s.center.x for s in sched.sources])
    los = np.searchsorted(xs, cx - 2 * TOL).tolist()
    his = np.searchsorted(xs, cx + 2 * TOL, side="right").tolist()
    taken: set[int] = set()
    for s, lo, hi in zip(sched.sources, los, his):
        c = s.center
        near = [i for i in order[lo:hi].tolist() if distance(inst.points[i], c) <= TOL]
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
        missed = ~burn_hits(sched.sources, T, inst.coords).any(axis=0)
        if missed.any():
            report.unburned_bits = np.packbits(missed, bitorder="little").tobytes()
    report.valid = not report.violations and not report.unburned_bits
    return report
