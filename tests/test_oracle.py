"""Exact solvers against frozen cases and independent enumeration."""

import itertools
import random
from collections import Counter

import pytest

from geoburn.core import (
    ANYWHERE,
    POINT,
    BurnSchedule,
    BurnSource,
    Instance,
    Model,
    Point,
    validate_schedule,
)
from geoburn.cover import disk_cover_greedy
from geoburn.oracle import (
    CapacityError,
    InfeasibleError,
    exact_burning_number,
    exact_disk_cover,
    exact_dominating_set,
    exact_max_burn,
)


def brute_point_burning_number(inst, k=1):
    # fully independent oracle: try every assignment of ignition steps and
    # let the validator judge it
    n = inst.n
    for T in range(1, n + 1):
        for assign in itertools.product(range(T + 1), repeat=n):
            counts = Counter(s for s in assign if s)
            if any(c > k for c in counts.values()):
                continue
            srcs = tuple(BurnSource(inst.points[i], s, inst.rates[i])
                         for i, s in enumerate(assign) if s)
            sched = BurnSchedule(Model(POINT, k), T, srcs)
            if validate_schedule(inst, sched).valid:
                return T
    return None


def test_burning_number_frozen_cases():
    assert exact_burning_number(Instance.line([0.0, 4.0]), Model(POINT))[0] == 2
    assert exact_burning_number(Instance.line([0.0, 1.0, 2.0]), Model(ANYWHERE))[0] == 2
    assert exact_burning_number(Instance.line([0.0, 1.0, 2.0]), Model(POINT))[0] == 2
    assert exact_burning_number(Instance.line([5.0]))[0] == 1
    assert exact_burning_number(Instance.line([]), Model(POINT))[0] == 0


def test_burning_number_k_and_rates():
    two = Instance.line([0.0, 2.0])
    assert exact_burning_number(two, Model(POINT, k=1))[0] == 2
    assert exact_burning_number(two, Model(POINT, k=2))[0] == 1
    fast = Instance.line([0.0, 6.0], rates=(3.0, 1.0))
    assert exact_burning_number(fast, Model(POINT))[0] == 2


def test_burning_number_witness_is_valid():
    rng = random.Random(321)
    for _ in range(15):
        n = rng.randint(1, 9)
        pts = [(rng.uniform(0, 12), rng.uniform(0, 12)) for _ in range(n)]
        inst = Instance.planar(pts)
        for model in (Model(POINT), Model(ANYWHERE), Model(POINT, k=2)):
            T, sched = exact_burning_number(inst, model)
            assert sched.total_steps == T
            assert validate_schedule(inst, sched).valid


def test_burning_number_matches_enumeration():
    rng = random.Random(17)
    for _ in range(12):
        n = rng.randint(1, 5)
        inst = Instance.line(sorted(rng.uniform(0, 9) for _ in range(n)))
        for k in (1, 2):
            want = brute_point_burning_number(inst, k)
            got = exact_burning_number(inst, Model(POINT, k))[0]
            assert got == want
    # a couple of planar ones with mixed rates
    for _ in range(4):
        n = rng.randint(2, 4)
        inst = Instance.planar(
            [(rng.uniform(0, 6), rng.uniform(0, 6)) for _ in range(n)],
            rates=tuple(rng.choice([1.0, 2.0]) for _ in range(n)))
        assert exact_burning_number(inst, Model(POINT))[0] == \
            brute_point_burning_number(inst, 1)
    # planar ones with two ignitions per step
    for _ in range(6):
        n = rng.randint(3, 5)
        inst = Instance.planar(
            [(rng.uniform(0, 4), rng.uniform(0, 4)) for _ in range(n)])
        assert exact_burning_number(inst, Model(POINT, 2))[0] == \
            brute_point_burning_number(inst, 2)


def test_burning_number_k2_steps_over_spent_entries():
    # after a step's first pick, a disk that no longer gains can come
    # before one that still does; the search must step over it
    eight = Instance.planar([(0, 0), (0.5, 0), (-0.9, 0), (0.9, 0),
                             (10, 0), (10.9, 0), (20, 0), (30, 0)])
    six = Instance.line([-0.9, 0.0, 0.9, 10.0, 20.0, 30.0])
    for inst in (eight, six):
        assert brute_point_burning_number(inst, 2) == 2
        for tag in (POINT, ANYWHERE):
            T, sched = exact_burning_number(inst, Model(tag, 2))
            assert T == 2
            assert validate_schedule(inst, sched).valid


def test_anywhere_never_worse_than_point():
    rng = random.Random(55)
    for _ in range(10):
        n = rng.randint(1, 7)
        inst = Instance.line(sorted(rng.uniform(0, 15) for _ in range(n)))
        dp = exact_burning_number(inst, Model(POINT))[0]
        da = exact_burning_number(inst, Model(ANYWHERE))[0]
        assert da <= dp


def test_anywhere_line_agrees_with_planar_embedding():
    # the 1-dimensional canonical centers and the planar candidate family
    # must agree on collinear inputs
    rng = random.Random(8)
    for _ in range(8):
        xs = sorted(rng.uniform(0, 10) for _ in range(rng.randint(1, 6)))
        d1 = exact_burning_number(Instance.line(xs), Model(ANYWHERE))[0]
        d2 = exact_burning_number(
            Instance.planar([(x, 0.0) for x in xs]), Model(ANYWHERE))[0]
        assert d1 == d2


def test_burning_number_translation_invariant():
    rng = random.Random(2)
    for _ in range(6):
        pts = [(rng.uniform(0, 8), rng.uniform(0, 8)) for _ in range(5)]
        inst = Instance.planar(pts)
        moved = Instance.planar([(x + 37.5, y - 12.25) for x, y in pts])
        for model in (Model(POINT), Model(ANYWHERE)):
            assert exact_burning_number(inst, model)[0] == \
                exact_burning_number(moved, model)[0]


def test_burning_number_infeasible_and_capacity():
    inst = Instance.line([0.0, 9.0])
    with pytest.raises(InfeasibleError):
        exact_burning_number(inst, Model(POINT), max_steps=1)
    with pytest.raises(CapacityError):
        exact_burning_number(inst, Model(POINT), node_budget=0)
    with pytest.raises(ValueError):
        exact_burning_number(Instance.line([0.0, 1.0], rates=(1.0, 2.0)),
                             Model(ANYWHERE))


def test_exact_disk_cover():
    assert exact_disk_cover([Point(0, 0), Point(3, 0)], 2.0) == [Point(1.5, 0.0)]
    assert exact_disk_cover([], 1.0) == []
    assert exact_disk_cover([Point(0, 0), Point(5, 0)], 1.0, max_size=1) is None
    rng = random.Random(44)
    for _ in range(10):
        n = rng.randint(1, 9)
        pts = [Point(rng.uniform(0, 8), rng.uniform(0, 8)) for _ in range(n)]
        radius = rng.uniform(0.5, 3.0)
        exact = exact_disk_cover(pts, radius)
        greedy = disk_cover_greedy(pts, radius)
        assert len(exact) <= len(greedy)
        for p in pts:
            assert any(abs(p.x - c.x) ** 2 + (p.y - c.y) ** 2
                       <= (radius + 1e-9) ** 2 for c in exact)


def test_exact_dominating_set():
    assert exact_dominating_set([{1}, {0, 2}, {1}]) == [1]
    assert exact_dominating_set([set(), set(), set()]) == [0, 1, 2]
    assert exact_dominating_set([set(), set(), set()], max_size=2) is None
    assert exact_dominating_set([]) == []
    with pytest.raises(CapacityError):
        exact_dominating_set([set()] * 12, node_budget=3)


def test_exact_max_burn():
    inst = Instance.planar([(0, 0), (5, 0), (1, 0)], sources=(0, 1))
    assert exact_max_burn(inst, 2) == 3
    assert exact_max_burn(inst, 1) == 1  # a step-1 fire has radius 0 at q=1
    assert exact_max_burn(inst, 0) == 0
    with pytest.raises(ValueError):
        exact_max_burn(Instance.line([0.0]), 2)
    big = Instance.planar([(i, 0) for i in range(5)], sources=tuple(range(5)))
    with pytest.raises(CapacityError):
        exact_max_burn(big, 5, node_budget=10)


def test_exact_max_burn_respects_rates():
    inst = Instance.planar([(0, 0), (4, 0), (8, 0)], rates=(4.0, 1.0, 1.0),
                           sources=(0,))
    # source 0 at multiplier 2 reaches radius 8: everything burns by q=3
    assert exact_max_burn(inst, 3) == 3
    assert exact_max_burn(inst, 2) == 2
