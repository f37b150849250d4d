"""Exact solvers against frozen cases and independent enumeration."""

import itertools
import random
import sys
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
from geoburn import cover
from geoburn.cover import (
    candidate_centers,
    coverage_mask,
    disk_cover_greedy,
    disk_graph,
    fire_masks,
)
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


def reference_point_witness(inst, k):
    # the point model of the dedicated per-horizon burning search that the
    # step kernel replaced, kept to pin the kernel's witnesses
    n, pts = inst.n, inst.points
    full = (1 << n) - 1
    for T in range(1, n + 1):
        cover = [[0] + [coverage_mask(pts[i], inst.rates[i] * (T - s), pts)
                        for s in range(1, T + 1)] for i in range(n)]
        failed, picked = set(), []

        def step(s, covered, used):
            if covered == full:
                return True
            if s > T or (s, covered, used) in failed:
                return False
            entries = [(i, cover[i][s]) for i in range(n) if not used >> i & 1]
            reach = 0
            for _, m in entries:
                reach |= m
            if full & ~covered & ~reach:
                failed.add((s, covered, used))
                return False
            order = sorted(range(len(entries)),
                           key=lambda j: -(entries[j][1] & ~covered).bit_count())
            if pick(s, entries, order, 0, k, covered, used):
                return True
            failed.add((s, covered, used))
            return False

        def pick(s, entries, order, pos, slots, covered, used):
            if slots == 0 or pos == len(order):
                return step(s + 1, covered, used)
            for oi in range(pos, len(order)):
                i, mask = entries[order[oi]]
                if not mask & ~covered:
                    if slots == k:
                        break
                    continue
                picked.append((i, s))
                if pick(s, entries, order, oi + 1, slots - 1, covered | mask,
                        used | 1 << i):
                    return True
                picked.pop()
            return step(s + 1, covered, used)

        if step(1, 0, 0):
            return T, BurnSchedule(Model(POINT, k), T, tuple(
                BurnSource(pts[i], s, inst.rates[i]) for i, s in picked))
    return None


def reference_max_burn(inst, q):
    # the enumeration of every injective assignment of radius multipliers
    # to sources that the step kernel replaced
    srcs = list(inst.sources)
    best = 0
    for t in range(min(q, len(srcs)) + 1):
        for mults in itertools.combinations(range(q), t):
            for perm in itertools.permutations(srcs, t):
                got = 0
                for rho, si in zip(mults, perm):
                    got |= coverage_mask(inst.points[si], rho * inst.rates[si],
                                         inst.points)
                best = max(best, got.bit_count())
    return best


def reference_dominating_set(neighbors):
    # the enumeration by increasing size that the cover kernel replaced
    n = len(neighbors)
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            got = set(combo).union(*(neighbors[v] for v in combo))
            if len(got) == n:
                return list(combo)


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
    instances = [Instance.planar([(rng.uniform(0, 12), rng.uniform(0, 12))
                                  for _ in range(rng.randint(1, 9))])
                 for _ in range(15)]
    # the second point lies within an ulp of the rate-3 fire's reach from
    # the first: squares burn it, hypot does not, so T = 2 needs two fires
    instances.append(Instance.planar([(0.0, 0.0), (-2.9294225391869992, -0.6469030784462196)],
                                     rates=[3.0, 3.0]))
    for inst in instances:
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
            got = exact_burning_number(inst, Model(POINT, k))
            assert got[0] == want
            assert got == reference_point_witness(inst, k)
    # a couple of planar ones with mixed rates
    for _ in range(4):
        n = rng.randint(2, 4)
        inst = Instance.planar(
            [(rng.uniform(0, 6), rng.uniform(0, 6)) for _ in range(n)],
            rates=tuple(rng.choice([1.0, 2.0]) for _ in range(n)))
        got = exact_burning_number(inst, Model(POINT))
        assert got[0] == brute_point_burning_number(inst, 1)
        assert got == reference_point_witness(inst, 1)
    # planar ones with two ignitions per step
    for _ in range(6):
        n = rng.randint(3, 5)
        inst = Instance.planar(
            [(rng.uniform(0, 4), rng.uniform(0, 4)) for _ in range(n)])
        got = exact_burning_number(inst, Model(POINT, 2))
        assert got[0] == brute_point_burning_number(inst, 2)
        assert got == reference_point_witness(inst, 2)


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


def test_fire_masks_table():
    inst = Instance.planar([(0, 0), (2, 0), (5, 0), (5, 3)],
                           rates=(1.0, 2.0, 1.0, 1.0))
    at = fire_masks(inst, Model(POINT), (2, 0, 1))
    for rho in range(4):
        entries = at(rho)
        assert [i for i, _ in entries] == [2, 0, 1]  # the sources' order
        for i, m in entries:
            assert m == coverage_mask(inst.points[i], inst.rates[i] * rho, inst.points)
        assert at(rho) is entries  # built once per radius
    # on a line an anywhere fire's right edge sits on an input point
    line = Instance.line([0.0, 1.0, 4.0])
    assert fire_masks(line, Model(ANYWHERE), range(3))(1) == [
        (Point(-1.0), 0b001), (Point(0.0), 0b011), (Point(3.0), 0b100)]
    # a right-edge center past the float range stops at the most negative
    # float, where the fire covers everything the slid fire covered
    far = Instance.line([-1.5e308, -1.4e308, 1e308], rates=(1e308,) * 3)
    assert fire_masks(far, Model(ANYWHERE), range(3))(1)[:2] == [
        (Point(-sys.float_info.max), 0b011), (Point(-sys.float_info.max), 0b011)]
    delta, sched = exact_burning_number(far, Model(ANYWHERE))
    assert delta == 2 and validate_schedule(far, sched).valid
    plane = Instance.planar([(0, 0), (3, 0), (0, 4)], rates=(2.0, 2.0, 2.0))
    entries = fire_masks(plane, Model(ANYWHERE), range(3))(1)
    assert [c for c, _ in entries] == candidate_centers(plane.points)
    assert [m for _, m in entries] == [
        coverage_mask(c, 2.0, plane.points) for c, _ in entries]


def test_fire_masks_shared_across_horizons(monkeypatch):
    # one planar anywhere solve builds its candidates once, and each
    # radius's masks once, over all the horizons it tries
    radii, cand_calls = [], []
    masks, cands = cover.coverage_masks, cover.candidate_centers

    def counted_masks(centers, radius, points):
        radii.append(radius)
        return masks(centers, radius, points)

    def counted_cands(*args, **kwargs):
        cand_calls.append(1)
        return cands(*args, **kwargs)

    monkeypatch.setattr(cover, "coverage_masks", counted_masks)
    monkeypatch.setattr(cover, "candidate_centers", counted_cands)
    inst = Instance.planar([(0, 0), (9, 0), (0, 9), (9, 9), (4, 5)])
    delta, sched = exact_burning_number(inst, Model(ANYWHERE))
    assert delta == 4 and validate_schedule(inst, sched).valid
    assert len(cand_calls) == 1
    assert sorted(radii) == [0.0, 1.0, 2.0, 3.0]


def test_exact_disk_cover():
    assert exact_disk_cover([Point(0, 0), Point(3, 0)], 2.0) == [Point(1.5, 0.0)]
    assert exact_disk_cover([], 1.0) == []
    assert exact_disk_cover([Point(0, 0), Point(5, 0)], 1.0, max_size=1) is None
    # candidates that cover no point admit no cover
    assert exact_disk_cover([Point(0, 0)], 1.0, candidates=[]) is None
    assert exact_disk_cover([Point(0, 0)], 1.0, candidates=[Point(5, 5)]) is None
    rng = random.Random(44)
    for _ in range(10):
        n = rng.randint(1, 9)
        pts = [Point(rng.uniform(0, 8), rng.uniform(0, 8)) for _ in range(n)]
        radius = rng.uniform(0.5, 3.0)
        exact = exact_disk_cover(pts, radius)
        greedy = disk_cover_greedy(pts, radius, candidate_centers(pts))
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
    assert exact_max_burn(big, 5) == 5  # one step-1 fire at x = 2 burns all
    # spread-out sources make the search branch: 57 nodes against a budget of 10
    grid = Instance.planar([(3 * i, 3 * j) for i in range(3) for j in range(3)],
                           sources=tuple(range(9)))
    with pytest.raises(CapacityError):
        exact_max_burn(grid, 3, node_budget=10)


def test_dominating_set_matches_enumeration():
    rng = random.Random(303)
    for _ in range(150):
        n = rng.randint(1, 12)
        side = rng.uniform(3, 15)
        pts = [Point(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(n)]
        nbrs = disk_graph(pts, [rng.uniform(0.3, 2.5) for _ in range(n)])
        dom = exact_dominating_set(nbrs)
        assert len(dom) == len(reference_dominating_set(nbrs))
        assert dom == sorted(set(dom))
        assert set(dom).union(*(nbrs[v] for v in dom)) == set(range(n))
        assert exact_dominating_set(nbrs, max_size=len(dom) - 1) is None


def test_max_burn_matches_enumeration():
    rng = random.Random(404)
    for _ in range(200):
        n = rng.randint(2, 9)
        side = rng.uniform(2, 12)
        inst = Instance.planar(
            [(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(n)],
            rates=tuple(rng.choice([1.0, 1.5, 2.0]) for _ in range(n)),
            sources=tuple(sorted(rng.sample(range(n), rng.randint(0, n)))))
        q = rng.randint(0, 4)
        assert exact_max_burn(inst, q) == reference_max_burn(inst, q)


def test_exact_max_burn_respects_rates():
    inst = Instance.planar([(0, 0), (4, 0), (8, 0)], rates=(4.0, 1.0, 1.0),
                           sources=(0,))
    # source 0 at multiplier 2 reaches radius 8: everything burns by q=3
    assert exact_max_burn(inst, 3) == 3
    assert exact_max_burn(inst, 2) == 2
