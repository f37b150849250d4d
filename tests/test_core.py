"""Data model and validator behaviour."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    burn_masks,
    burn_radius,
    burns,
    distance,
    is_burned,
    validate_schedule,
    within,
)


def line_instance(*xs):
    return Instance.line(xs)


def test_point_iter_and_order():
    p = Point(1.0, 2.0)
    assert tuple(p) == (1.0, 2.0)
    assert Point(0.0) == Point(0.0, 0.0)
    assert Point(0.0, 0.0) < Point(1.0, -5.0)


def test_distance():
    assert distance(Point(0, 0), Point(3, 4)) == 5.0


def test_burn_radius_and_horizon():
    s = BurnSource(Point(0, 0), step=3, rate=2.0)
    assert burn_radius(s, 7) == 8.0
    assert burn_radius(s, 3) == 0.0
    with pytest.raises(ValueError):
        burn_radius(s, 2)


def test_instance_defaults_and_validation():
    inst = line_instance(0.0, 1.0, 2.0)
    assert inst.dimension == 1
    assert inst.rates == (1.0, 1.0, 1.0)
    assert inst.n == 3
    assert inst.uniform_rates()
    assert inst.rate_ratio() == 1.0

    inst2 = Instance.planar([(0, 0), (1, 1)], rates=(1.0, 3.0))
    assert not inst2.uniform_rates()
    assert inst2.rate_ratio() == 3.0

    with pytest.raises(ValueError):
        Instance.line([0.0], rates=(0.0,))
    with pytest.raises(ValueError):
        Instance.line([0.0], rates=(1.0, 2.0))
    with pytest.raises(ValueError):
        Instance((Point(0.0, 1.0),), dimension=1)
    with pytest.raises(ValueError):
        Instance((Point(0, 0),), sources=(1,))
    with pytest.raises(ValueError):
        Instance((Point(0, 0), Point(1, 0)), sources=(0, 0))
    with pytest.raises(ValueError):
        Instance((Point(0, 0),), dimension=3)
    with pytest.raises(ValueError):
        Instance((Point(math.inf, 0),))


def test_model_validation():
    assert Model().tag == POINT and Model().k == 1
    with pytest.raises(ValueError):
        Model("elsewhere")
    with pytest.raises(ValueError):
        Model(POINT, k=0)


def test_valid_schedule_with_burnt_ignition_warning():
    # three unit-spaced points; step-1 fire at the middle covers everything
    # by T=2, so the step-2 ignition hits an already burnt point: still
    # valid, but flagged.
    inst = line_instance(0.0, 1.0, 2.0)
    sched = BurnSchedule(Model(POINT), 2, (
        BurnSource(Point(1.0), 1),
        BurnSource(Point(0.0), 2),
    ))
    rep = validate_schedule(inst, sched)
    assert rep.valid
    assert rep.unburned == []
    assert rep.violations == []
    assert [w.rule for w in rep.warnings] == ["ignite-burnt-point"]
    assert "warning" in rep.summary()


def test_unburned_points_reported():
    inst = line_instance(0.0, 10.0)
    sched = BurnSchedule(Model(POINT), 2, (BurnSource(Point(0.0), 1),))
    rep = validate_schedule(inst, sched)
    assert not rep.valid
    assert rep.unburned == [1]
    assert rep.violations == []


def test_step_range_violation():
    inst = line_instance(0.0)
    for bad_step in (0, 3, -1):
        sched = BurnSchedule(Model(POINT), 2, (BurnSource(Point(0.0), bad_step),))
        rep = validate_schedule(inst, sched)
        assert not rep.valid
        assert any(v.rule == "step-range" for v in rep.violations)


def test_step_capacity_violation_and_k():
    inst = line_instance(0.0, 5.0)
    two_at_once = (BurnSource(Point(0.0), 1), BurnSource(Point(5.0), 1))
    rep = validate_schedule(inst, BurnSchedule(Model(POINT, k=1), 3, two_at_once))
    assert any(v.rule == "step-capacity" for v in rep.violations)
    rep2 = validate_schedule(inst, BurnSchedule(Model(POINT, k=2), 3, two_at_once))
    assert rep2.valid


def test_point_model_source_matching():
    inst = line_instance(0.0, 1.0)
    off = BurnSchedule(Model(POINT), 3, (BurnSource(Point(0.5), 1),))
    rep = validate_schedule(inst, off)
    assert any(v.rule == "off-instance-point" for v in rep.violations)

    doubled = BurnSchedule(Model(POINT), 3, (
        BurnSource(Point(0.0), 1), BurnSource(Point(0.0), 2)))
    rep2 = validate_schedule(inst, doubled)
    assert any(v.rule == "duplicate-instance-point" for v in rep2.violations)


def test_anywhere_model_skips_point_checks():
    inst = line_instance(0.0, 1.0)
    sched = BurnSchedule(Model(ANYWHERE), 2, (BurnSource(Point(0.5), 1),))
    rep = validate_schedule(inst, sched)
    assert rep.valid
    assert rep.warnings == []


def test_duplicate_instance_points_allow_two_sources():
    # programmatic construction keeps duplicates; each copy is ignitable once
    inst = Instance.line([0.0, 0.0])
    sched = BurnSchedule(Model(POINT, k=2), 1, (
        BurnSource(Point(0.0), 1), BurnSource(Point(0.0), 1)))
    rep = validate_schedule(inst, sched)
    assert rep.valid


def test_tolerance_boundary():
    inst = line_instance(0.0, 1.0)
    exact = BurnSchedule(Model(ANYWHERE), 2, (BurnSource(Point(0.0), 1),))
    assert is_burned(Point(1.0 + TOL / 2), exact)
    assert not is_burned(Point(1.0 + 1e-6), exact)


def test_nonuniform_rates_in_schedule():
    # rate-3 source reaches x=6 in two elapsed steps
    inst = Instance.line([0.0, 6.0], rates=(3.0, 1.0))
    sched = BurnSchedule(Model(POINT), 3, (BurnSource(Point(0.0), 1, rate=3.0),))
    assert validate_schedule(inst, sched).valid


def test_validity_monotone_in_horizon():
    # a valid schedule stays valid when the horizon grows (radii only grow)
    rng = random.Random(20260816)
    for _ in range(50):
        n = rng.randint(1, 8)
        pts = [(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(n)]
        inst = Instance.planar(pts)
        m = rng.randint(1, n)
        idxs = rng.sample(range(n), m)
        T = m + rng.randint(0, 20)
        srcs = tuple(BurnSource(inst.points[i], s + 1) for s, i in enumerate(idxs))
        sched = BurnSchedule(Model(POINT), T, srcs)
        rep = validate_schedule(inst, sched)
        bigger = BurnSchedule(Model(POINT), T + rng.randint(1, 5), srcs)
        rep2 = validate_schedule(inst, bigger)
        if rep.valid:
            assert rep2.valid
        assert not set(rep2.unburned) - set(rep.unburned)


def test_validation_invariant_under_rigid_motion():
    # rotating and translating instance + schedule together changes nothing
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(2, 7)
        pts = [(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(n)]
        inst = Instance.planar(pts)
        m = rng.randint(1, n)
        idxs = rng.sample(range(n), m)
        T = rng.randint(m, m + 6)
        srcs = tuple(BurnSource(inst.points[i], s + 1) for s, i in enumerate(idxs))
        sched = BurnSchedule(Model(POINT), T, srcs)
        before = validate_schedule(inst, sched)

        ang = rng.uniform(0, 2 * math.pi)
        dx, dy = rng.uniform(-100, 100), rng.uniform(-100, 100)
        c, s_ = math.cos(ang), math.sin(ang)

        def move(p):
            return Point(c * p.x - s_ * p.y + dx, s_ * p.x + c * p.y + dy)

        inst2 = Instance(tuple(move(p) for p in inst.points))
        srcs2 = tuple(BurnSource(move(b.center), b.step, b.rate) for b in srcs)
        after = validate_schedule(inst2, BurnSchedule(Model(POINT), T, srcs2))
        assert before.valid == after.valid
        assert before.unburned == after.unburned
        assert [v.rule for v in before.violations] == [v.rule for v in after.violations]


@st.composite
def boundary_fires(draw):
    # fires with rates 1e-9..1e300 at coordinates up to +-1e300, each with
    # points drawn within 8 ulps of its reach (radius + TOL), some straight
    # along the x axis and some at an angle
    sources, points = [], []
    for _ in range(draw(st.integers(1, 3))):
        cx, cy = (draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.floats(-3, 300))
                  for _ in range(2))
        source = BurnSource(Point(cx, cy), 0, 10.0 ** draw(st.floats(-9, 300)))
        sources.append(source)
        reach = source.rate + TOL
        for _ in range(draw(st.integers(1, 4))):
            k = draw(st.integers(-8, 8))
            if draw(st.booleans()):
                x = cx + reach
                points.append(Point(x + k * math.ulp(x), cy))
            else:
                theta = draw(st.floats(0.0, 2.0 * math.pi))
                r = reach + k * math.ulp(reach)
                points.append(Point(cx + r * math.cos(theta), cy + r * math.sin(theta)))
    return sources, points


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(boundary_fires())
# within an ulp of the rate-3 fire's reach: d^2 <= (3 + TOL)^2 holds, hypot's test does not
@example(([BurnSource(Point(0.0, 0.0), 0, 3.0)],
          [Point(-2.9294225391869992, -0.6469030784462196)]))
def test_burn_masks_match_burns_on_the_boundary(case):
    sources, points = case
    for source, mask in zip(sources, burn_masks(sources, 1, points)):
        assert [bool(mask >> j & 1) for j in range(len(points))] == \
            [burns(source, p, 1) for p in points]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(
    st.floats(-320, 308) | st.sampled_from([77.13, 154.127, -153.8, -154.5]),
    st.floats(0.0, 2.0 * math.pi), st.integers(-8, 8)), min_size=1, max_size=8))
def test_within_matches_hypot(draws):
    # reaches from subnormal to near the float range, those whose squares
    # just overflow or underflow among them, with lengths within 8 ulps
    reach = np.array([10.0 ** e for e, _, _ in draws])
    r = [q + k * math.ulp(q) for q, (_, _, k) in zip(reach.tolist(), draws)]
    dx = np.array([q * math.cos(t) for q, (_, t, _) in zip(r, draws)])
    dy = np.array([q * math.sin(t) for q, (_, t, _) in zip(r, draws)])
    assert within(dx, dy, reach).tolist() == \
        [math.hypot(x, y) <= q for x, y, q in zip(dx.tolist(), dy.tolist(), reach.tolist())]
