"""Line solver: grouping, sweep, ratios, and rejection soundness."""

import math
import random
import tracemalloc
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geoburn.core import (
    ANYWHERE,
    POINT,
    TOL,
    BurnSource,
    Instance,
    Model,
    Point,
    burns,
    validate_schedule,
)
from geoburn.oracle import CapacityError, exact_burning_number
from geoburn.ptas1d import (
    GroupSpec,
    _first_within,
    build_groups,
    cover_line,
    ptas_burning_line,
)


def test_build_groups_frozen():
    spec = build_groups(6, 3)
    assert spec.sizes == (2, 2, 2)
    assert spec.radii == (2.0, 4.0, 6.0)
    assert not spec.exact

    spec = build_groups(5, 2)
    assert spec.sizes == (2, 3)
    assert spec.radii == (2.5, 5.0)


def test_build_groups_exact_regime():
    spec = build_groups(1, 2)
    assert spec.exact
    assert spec.sizes == (1,)
    assert spec.radii == (0.0,)

    spec = build_groups(3, 5)
    assert spec.sizes == (1, 1, 1)
    assert spec.radii == (0.0, 1.0, 2.0)

    # at t == delta the rounded radii apply, one size too big each
    spec = build_groups(2, 2)
    assert not spec.exact
    assert spec.sizes == (1, 1)
    assert spec.radii == (1.0, 2.0)


def test_build_groups_invariants():
    # sizes add to delta, radii ascend, and every interval's relaxed radius
    # dominates its true radius i - 1
    for delta in range(1, 40):
        for t in range(1, 12):
            spec = build_groups(delta, t)
            assert sum(spec.sizes) == delta
            assert list(spec.radii) == sorted(spec.radii)
            i = 0
            for size, radius in zip(spec.sizes, spec.radii):
                for _ in range(size):
                    i += 1
                    assert radius >= i - 1
            assert i == delta
    with pytest.raises(ValueError):
        build_groups(0, 3)


def test_cover_line_sweep():
    spec = GroupSpec(2, 2, (1, 1), (1.0, 2.0))
    got = cover_line([0.0, 1.0, 2.0], spec, point_model=False)
    assert got == [(0.0, 2.0)]  # right end at 2, radius 2
    got = cover_line([0.0, 1.0, 2.0], spec, point_model=True)
    assert got == [(0.0, 2.0)]  # leftmost point reaching 2 is 0

    tight = GroupSpec(1, 2, (1,), (0.0,))
    assert cover_line([0.0, 1.0, 2.0], tight, point_model=False) is None


def reference_cover_line(xs, spec, point_model):
    # the memoized sweep alone, without the feasibility table in front
    g = len(spec.sizes)
    failed = set()
    placements = []

    def sweep(prefix, left):
        if prefix == 0:
            return True
        key = (prefix, left)
        if key in failed:
            return False
        z = xs[prefix - 1]
        for j in range(g - 1, -1, -1):
            if left[j] == 0:
                continue
            radius = spec.radii[j]
            if point_model:
                center = xs[bisect_left(xs, z - radius - TOL)]
            else:
                center = z - radius
            new_prefix = bisect_left(xs, center - radius - TOL)
            placements.append((center, radius))
            spent = left[:j] + (left[j] - 1,) + left[j + 1:]
            if sweep(new_prefix, spent):
                return True
            placements.pop()
        failed.add(key)
        return False

    if not sweep(len(xs), tuple(spec.sizes)):
        return None
    return list(placements)


def test_cover_line_matches_reference_sweep():
    # exact regime (t > delta) and an infeasible guess, by hand
    xs = [0.0, 1.0, 1.0, 3.0, 7.5]
    for spec in (build_groups(3, 8), build_groups(2, 8), build_groups(4, 2)):
        for point_model in (False, True):
            assert cover_line(xs, spec, point_model) == \
                reference_cover_line(xs, spec, point_model)
    assert cover_line(xs, build_groups(2, 8), False) is None
    # every guess up to acceptance on seeded lines with repeated points
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randint(1, 60)
        xs = [round(rng.uniform(0, n / 2), rng.choice([0, 1, 3]))
              for _ in range(n)]
        xs = sorted(xs + rng.sample(xs, n // 5))
        t = math.ceil(2.0 / rng.choice([2.0, 1.0, 0.5, 0.25, 0.1]))
        for point_model in (False, True):
            delta = 0
            while True:
                delta += 1
                spec = build_groups(delta, t)
                got = cover_line(xs, spec, point_model)
                assert got == reference_cover_line(xs, spec, point_model)
                if got is not None:
                    break


def test_exact_regime_long_line_frozen():
    # delta < t all the way to acceptance: every group is a singleton, and
    # a backtracking sweep over 200 points blows up here
    rng = random.Random(1)
    inst = Instance.line([rng.uniform(0, 300) for _ in range(200)])
    horizon, sched, trace = ptas_burning_line(inst, Model(ANYWHERE), 0.1)
    assert trace.accepted_delta == 16
    assert horizon == 18
    assert len(sched.sources) == 16
    assert validate_schedule(inst, sched).valid


def test_table_past_the_node_budget_raises_before_allocating():
    # exact regime at delta = 21: the table would hold 2^21 entries, over
    # the default node budget; it is refused before anything is built
    rng = random.Random(1)
    xs = sorted(rng.uniform(0, 300) for _ in range(200))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            cover_line(xs, build_groups(21, 40), False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # a 2^21-entry list alone is 16 MB


def test_rejects_then_accepts_frozen():
    inst = Instance.line([0.0, 1.0, 2.0])
    for tag in (POINT, ANYWHERE):
        horizon, sched, trace = ptas_burning_line(inst, Model(tag), epsilon=1.0)
        assert [e.delta for e in trace.entries] == [1, 2]
        assert [e.accepted for e in trace.entries] == [False, True]
        assert trace.entries[0].measure == math.inf
        assert horizon == 4
        assert len(sched.sources) == 1
        assert sched.sources[0].center.x == 0.0
        assert sched.sources[0].step == 1
        assert validate_schedule(inst, sched).valid


def test_single_point_and_empty():
    horizon, sched, trace = ptas_burning_line(Instance.line([7.0]), epsilon=1.0)
    assert horizon == 2 and trace.accepted_delta == 1
    assert validate_schedule(Instance.line([7.0]), sched).valid

    horizon, sched, trace = ptas_burning_line(Instance.line([]), epsilon=1.0)
    assert horizon == 0 and sched.sources == ()


def test_horizon_formula():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 12)
        inst = Instance.line(sorted(rng.uniform(0, 25) for _ in range(n)))
        eps = rng.choice([2.0, 1.0, 0.5, 0.25])
        t = math.ceil(2.0 / eps)
        horizon, _, trace = ptas_burning_line(inst, Model(ANYWHERE), eps)
        d = trace.accepted_delta
        assert horizon == d + -(-2 * d // t)
        assert horizon <= math.ceil(d * (1.0 + 2.0 / t))


def test_validity_and_ratio_against_oracle():
    rng = random.Random(90)
    for _ in range(12):
        n = rng.randint(1, 9)
        inst = Instance.line(sorted(rng.uniform(0, 20) for _ in range(n)))
        for tag in (POINT, ANYWHERE):
            model = Model(tag)
            opt = exact_burning_number(inst, model)[0]
            for eps in (2.0, 1.0, 0.5):
                horizon, sched, _ = ptas_burning_line(inst, model, eps)
                assert validate_schedule(inst, sched).valid
                assert horizon <= (1.0 + eps) * opt + 1.0 + 1e-9


def test_rejected_guesses_are_below_optimum():
    # a rejected guess must be a true lower bound witness: delta < delta*
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randint(2, 8)
        inst = Instance.line(sorted(rng.uniform(0, 14) for _ in range(n)))
        for tag in (POINT, ANYWHERE):
            model = Model(tag)
            opt = exact_burning_number(inst, model)[0]
            for eps in (1.0, 0.5):
                _, _, trace = ptas_burning_line(inst, model, eps)
                for entry in trace.entries:
                    if not entry.accepted:
                        assert entry.delta < opt


def test_uniform_scaled_rates():
    inst = Instance.line([0.0, 4.0, 8.0], rates=(2.0, 2.0, 2.0))
    horizon, sched, _ = ptas_burning_line(inst, Model(POINT), epsilon=0.5)
    assert validate_schedule(inst, sched).valid
    # rate 2 halves distances: same horizon as the unit-rate instance at
    # half the coordinates
    href, _, _ = ptas_burning_line(Instance.line([0.0, 2.0, 4.0]),
                                   Model(POINT), epsilon=0.5)
    assert horizon == href


def test_input_validation():
    line = Instance.line([0.0, 1.0])
    with pytest.raises(ValueError):
        ptas_burning_line(line, epsilon=0.0)
    with pytest.raises(ValueError):
        ptas_burning_line(Instance.planar([(0, 0)]), epsilon=1.0)
    with pytest.raises(ValueError):
        ptas_burning_line(line, Model(POINT, k=2), epsilon=1.0)
    with pytest.raises(ValueError):
        ptas_burning_line(Instance.line([0.0, 1.0], rates=(1.0, 2.0)),
                          epsilon=1.0)


@st.composite
def boundary_lines(draw):
    # sorted points far from the origin, gaps within a few ulps of the reach
    offset = 10.0 ** draw(st.floats(9, 15.5))
    radius = draw(st.sampled_from([0.1, 0.3, 1 / 3, 0.7, 7.0])) * draw(st.integers(0, 4))
    reach = radius + TOL
    xs = [offset]
    for _ in range(draw(st.integers(0, 8))):
        gap = reach if draw(st.booleans()) else reach * draw(st.floats(0.0, 2.0))
        x = xs[-1] + gap
        xs.append(x + draw(st.integers(-4, 4)) * math.ulp(x))
    return sorted(xs), radius


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(boundary_lines())
def test_first_within_matches_burns(case):
    # the index searches behind every cover_line move find the first point
    # that core's burn test puts within reach
    xs, radius = case
    arr = np.asarray(xs)
    got = _first_within(arr, arr[None, :], np.array([[radius + TOL]]))[0]
    for v, i in zip(xs, got):
        fire = BurnSource(Point(v, 0.0), 0, radius)
        assert i == next(j for j, x in enumerate(xs) if burns(fire, Point(x, 0.0), 1))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([0.1, 0.3, 1 / 3, 7.0]), st.floats(9, 15.5),
       st.lists(st.floats(0.0, 30.0), min_size=1, max_size=10),
       st.sampled_from([POINT, ANYWHERE]))
# x / rate * rate != x: scaled coordinates put this point-model fire at
# 1000000000.0000001, off its point; the radii now scale by the rate instead
@example(0.7, 9.0, [0.0, 1.0, 3.0], POINT)
def test_non_unit_rates_far_from_origin_validate(rate, exponent, gaps, model):
    xs = sorted({10.0 ** exponent + g * rate for g in gaps})
    inst = Instance.line(xs, rates=[rate] * len(xs))
    _, sched, _ = ptas_burning_line(inst, Model(model), 0.5)
    assert validate_schedule(inst, sched).valid
    if model == POINT:
        assert {s.center.x for s in sched.sources} <= set(xs)
