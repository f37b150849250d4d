"""validate_schedule against a plain reference copy, on drawn adversarial cases.

The reference below is the validator as it was before the fire list and
the x-indexed source matching: one burn test per point-fire pair and a
scan of every instance point per source.  The indexed validator must
give the same report, verdict for verdict and in the same order.  It
must also give the same verdicts on the instance's points in any order.
"""

import math
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from geoburn.core import (
    ANYWHERE,
    POINT,
    TOL,
    BurnSchedule,
    BurnSource,
    Instance,
    Model,
    Point,
    Violation,
    validate_schedule,
)


def _ref_burns(source, p, step):
    c = source.center
    return math.hypot(p.x - c.x, p.y - c.y) <= source.rate * (step - source.step) + TOL


def _ref_match_sources_to_points(inst, sched, report):
    taken = set()
    for s in sched.sources:
        hit = None
        dup_only = False
        for i, p in enumerate(inst.points):
            if math.hypot(p.x - s.center.x, p.y - s.center.y) <= TOL:
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


def reference_validate_schedule(inst, sched):
    # a report of its own, so the reference does not lean on ValidationReport
    report = SimpleNamespace(valid=True, unburned=[], violations=[], warnings=[])
    T = sched.total_steps
    per_step = {}
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
        _ref_match_sources_to_points(inst, sched, report)
        ordered = sorted(sched.sources, key=lambda s: s.step)
        for i, s in enumerate(ordered):
            for earlier in ordered[:i]:
                if earlier.step >= s.step:
                    continue
                if _ref_burns(earlier, s.center, s.step):
                    report.warnings.append(Violation(
                        "ignite-burnt-point",
                        f"source at ({s.center.x}, {s.center.y}) step {s.step} "
                        f"already burnt by step-{earlier.step} fire"))
                    break
    if not report.violations:
        for i, p in enumerate(inst.points):
            if not any(_ref_burns(s, p, T) for s in sched.sources):
                report.unburned.append(i)
    report.valid = not report.violations and not report.unburned
    return report


# Points sit on a few grid nodes, nudged along x by multiples of TOL / 2
# and now and then up by TOL: coincident points, points within TOL of
# each other and chains of them.  Sources sit on points, some nudged
# along x by up to TOL either way.
NUDGE = st.sampled_from([0.0, TOL / 2, TOL, 1.5 * TOL, 2 * TOL])
LIFT = st.sampled_from([0.0, 0.0, 0.0, TOL])
SOURCE_NUDGE = st.sampled_from([0.0, 0.0, TOL / 2, -TOL / 2, TOL, -TOL])
RATE = st.sampled_from([1.0, 0.5, 1e6]) | st.floats(1e-3, 1e6)


@st.composite
def cases(draw, nudge=NUDGE, lift=LIFT):
    shift = draw(st.sampled_from([0.0, 0.0, 1e12, -1e12]))
    nodes = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1)),
                          min_size=1, max_size=3))
    coords = []
    for _ in range(draw(st.integers(1, 8))):
        gx, gy = draw(st.sampled_from(nodes))
        coords.append((shift + gx + draw(nudge),
                       shift + gy + draw(lift)))
    rates = draw(st.lists(RATE, min_size=len(coords), max_size=len(coords)))
    inst = Instance.planar(coords, rates)
    T = draw(st.integers(0, 6))
    k = draw(st.sampled_from([1, 2]))
    sources = []
    for _ in range(draw(st.integers(0, 6))):
        x, y = draw(st.sampled_from(coords))
        # mostly steps in 1..T, often T itself (radius 0, reach TOL);
        # now and then one outside 1..T
        step = draw(st.integers(-1, T + 2) if draw(st.integers(0, 7)) == 0
                    else st.integers(1, max(T, 1)) | st.just(T))
        sources.append(BurnSource(Point(x + draw(SOURCE_NUDGE), y), step, draw(RATE)))
    model = Model(draw(st.sampled_from([POINT, POINT, ANYWHERE])), k)
    return inst, BurnSchedule(model, T, tuple(sources))


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
# a point exactly TOL from a radius-0 fire
@example((Instance.planar([(0.0, 0.0), (TOL, 0.0)]),
          BurnSchedule(Model(POINT), 1, (BurnSource(Point(0.0, 0.0), 1),))))
# the first source is within TOL of all three points, the later ones of
# two each: only the lowest-index match leaves each a point of its own
@example((Instance.planar([(0.0, 0.0), (TOL, 0.0), (2 * TOL, 0.0)]),
          BurnSchedule(Model(POINT, 3), 1, (
              BurnSource(Point(TOL, 0.0), 1), BurnSource(Point(TOL / 2, 0.0), 1),
              BurnSource(Point(1.5 * TOL, 0.0), 1)))))
def test_validator_matches_reference(case):
    inst, sched = case
    got = validate_schedule(inst, sched)
    want = reference_validate_schedule(inst, sched)
    assert got.valid == want.valid
    assert got.unburned == want.unburned
    assert got.violations == want.violations
    assert got.warnings == want.warnings


# Points on one grid node are nudged by 0 or 3 TOL along each axis, so
# they coincide or lie at least 3 TOL apart: no source (at most TOL off
# a point) is within TOL of two distinct points, and the lowest-index
# match cannot depend on the order of the points.
@st.composite
def permuted_cases(draw):
    offset = st.sampled_from([0.0, 3 * TOL])
    inst, sched = draw(cases(offset, offset))
    return inst, sched, draw(st.permutations(range(inst.n)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(permuted_cases())
# 300 points, 299 of them unburned, listed past the small-int cache
@example((Instance.line(range(300)),
          BurnSchedule(Model(POINT), 1, (BurnSource(Point(0.0, 0.0), 1),)),
          list(range(299, -1, -1))))
def test_validator_invariant_under_permutation(case):
    inst, sched, perm = case
    moved = Instance(tuple(inst.points[i] for i in perm), tuple(inst.rates[i] for i in perm),
                     dimension=inst.dimension)
    got, want = validate_schedule(moved, sched), validate_schedule(inst, sched)
    assert got.valid == want.valid
    assert sorted(perm[j] for j in got.unburned) == want.unburned
    assert got.violations == want.violations
    assert got.warnings == want.warnings
    # retained reports stay small: at most one bit per point
    assert len(got.unburned_bits) <= -(-inst.n // 8)
    assert len(want.unburned_bits) <= -(-inst.n // 8)


# (points on a line, final fire radius at x = 0 or None for no fire):
# no points, and 13 points (not a multiple of 8) with none, one or all
# of them unburned
@pytest.mark.parametrize("n, radius, summary", [
    (0, None, "valid"),
    (13, 12, "valid"),
    (13, 11, "INVALID; 1 unburned: [12]"),
    (13, None, "INVALID; 13 unburned: " + str(list(range(13)))),
], ids=["no-points", "none-unburned", "one-unburned", "all-unburned"])
def test_unburned_bits(n, radius, summary):
    inst = Instance.line(range(n))
    sources = () if radius is None else (BurnSource(Point(0.0, 0.0), 1),)
    sched = BurnSchedule(Model(POINT), 0 if radius is None else radius + 1, sources)
    got = validate_schedule(inst, sched)
    want = reference_validate_schedule(inst, sched)
    assert got.valid == want.valid
    assert got.unburned == want.unburned
    assert got.summary() == summary
    # bits only when some point is missed, at most one per point
    assert bool(got.unburned_bits) == bool(want.unburned)
    assert len(got.unburned_bits) <= -(-n // 8)
