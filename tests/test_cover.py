"""Covering primitives, the five-disk template, and annulus zones."""

import itertools
import math
import random

import pytest

from geoburn import burn2d
from geoburn.burn2d import k_burning_nonuniform
from geoburn.core import TOL, BurnSource, Instance, Point, burns, distance
from geoburn.cover import (
    _MaskGroups,
    _cover_hole,
    ANNULUS_INNER_FRACTION,
    FIVE_COVER_CENTERS,
    FIVE_COVER_RADIUS,
    LATE_REACH_FRACTION,
    ZONE_COUNT,
    candidate_centers,
    circumcenter,
    coverage_mask,
    coverage_masks,
    disk_cover_approx,
    disk_cover_greedy,
    disk_cover_local_search,
    disk_graph,
    dominating_set_greedy,
    greedy_cover,
    max_coverage_groups,
    sample_covering_radius,
    scaled_template,
    verify_template,
    zone_diameter_fraction,
    zone_of,
)


def test_circumcenter():
    cc = circumcenter(Point(0, 0), Point(2, 0), Point(0, 2))
    assert cc == Point(1.0, 1.0)
    assert circumcenter(Point(0, 0), Point(1, 0), Point(2, 0)) is None


def test_candidate_centers_order_and_dedup():
    pts = [Point(0, 0), Point(2, 0), Point(0, 2)]
    cands = candidate_centers(pts)
    # 3 points, 3 midpoints, and the circumcenter collapses onto the
    # hypotenuse midpoint (1, 1)
    assert cands[:3] == pts
    assert len(cands) == 6
    assert Point(1.0, 1.0) in cands

    line = candidate_centers([Point(0, 0), Point(1, 0), Point(2, 0)])
    assert len(line) == 5  # midpoint (1, 0) duplicates an input point


def test_candidate_centers_extreme_coordinates():
    # a midpoint that overflows is skipped; huge coordinates bucket on a
    # wider cell and still collapse only points within TOL
    for far in (1e299, 1e300, 1.7e308):
        pts = [Point(0, 0), Point(3, 4), Point(far, 0), Point(far, 1.0)]
        cands = candidate_centers(pts)
        assert cands[:4] == pts
        assert all(math.isfinite(c.x) and math.isfinite(c.y) for c in cands)
        assert len(cands) == len(set(cands))
    assert candidate_centers([Point(1.7e308, 0), Point(1.5e308, 0)]) == [
        Point(1.7e308, 0), Point(1.5e308, 0)]
    assert len(candidate_centers([Point(1.7e308, 0), Point(1.7e308, 0)])) == 1


def test_coverage_masks_huge_lengths():
    # squares past the float range must not compare inf <= inf
    pts = [Point(0, 0), Point(1e300, 0), Point(-1e300, 1e300)]
    assert coverage_masks([Point(0, 0)], 1e300, pts) == [0b011]
    assert coverage_masks([Point(0, 0)], 1.5e300, pts) == [0b111]
    assert coverage_masks([Point(1e300, 0)], 0.0, pts) == [0b010]
    assert coverage_masks([Point(-1e308, 0)], 1e308, [Point(1e308, 0), Point(0, 0)]) == [0b10]
    assert coverage_masks([Point(0, 0)], 1e200, [Point(0, 0), Point(2e200, 0)]) == [0b01]
    assert coverage_masks([Point(0, 0)], math.inf, pts) == [0b111]
    # short lengths beside huge ones neither underflow nor vanish
    tiny = [Point(0, 0), Point(5e-5, 0), Point(1.7e308, 0), Point(1.7e308, 0.5)]
    assert coverage_masks([Point(0, 0)], 0.0, tiny) == [0b0001]
    assert coverage_masks([Point(0, 0)], 5e-5, tiny) == [0b0011]
    assert coverage_masks([Point(1.7e308, 0)], 0.5, tiny) == [0b1100]
    # an overflowed center covers nothing
    assert coverage_masks([Point(-math.inf, 0)], 1e308, [Point(-1.5e308, 0)]) == [0]
    # at ordinary lengths nothing is rescaled: the boundary stays at +TOL
    assert coverage_masks([Point(0, 0)], 5.0, [Point(3, 4 + 0.9 * TOL),
                                               Point(3, 4 + 2 * TOL)]) == [0b01]
    # within an ulp of the bound the mask takes burns()' verdict, where
    # the squared test would burn the point
    edge = Point(-2.9294225391869992, -0.6469030784462196)
    assert not burns(BurnSource(Point(0, 0), 1, 3.0), edge, 2)
    assert coverage_masks([Point(0, 0)], 3.0, [edge]) == [0]


def test_greedy_cover_matches_eager_scan():
    # the lazy heap picks what a rescan of every mask per round picks
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(0, 12)
        full = (1 << n) - 1
        masks = [rng.getrandbits(n) & rng.getrandbits(n) if n else 0
                 for _ in range(rng.randint(0, 15))]
        left, want = full, []
        while left:
            gains = [(m & left).bit_count() for m in masks]
            if not gains or max(gains) == 0:
                break
            want.append(gains.index(max(gains)))
            left &= ~masks[want[-1]]
        assert greedy_cover(masks, full) == (want, left)


def test_greedy_cover_single_disk_via_midpoint():
    pts = [Point(0, 0), Point(3, 0)]
    cover = disk_cover_greedy(pts, 2.0, candidate_centers(pts))
    assert cover == [Point(1.5, 0.0)]


def test_greedy_cover_requires_coverable():
    with pytest.raises(ValueError):
        disk_cover_greedy([Point(0, 0), Point(5, 0)], 1.0, candidates=[Point(0, 0)])


def test_greedy_cover_random_sweep():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(1, 14)
        pts = [Point(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]
        radius = rng.uniform(0.5, 4.0)
        cover = disk_cover_greedy(pts, radius, candidate_centers(pts))
        for p in pts:
            assert any(distance(p, c) <= radius + 1e-9 for c in cover)


def test_local_search_beats_plain_greedy():
    # the gain-6 disk at 2.0 straddles both optimal windows [0, 2] and
    # [2.8, 4.8], stranding the flanks; greedy pays 3, the 3-for-2 swap
    # recovers the optimal 2
    xs = (0.0, 0.1, 0.2, 1.8, 1.9, 2.0, 2.8, 2.9, 3.0, 4.6, 4.7, 4.8)
    pts = [Point(x, 0.0) for x in xs]
    cands = candidate_centers(pts)
    greedy = disk_cover_greedy(pts, 1.0, cands)
    polished = disk_cover_approx(pts, 1.0, cands, epsilon=0.5)
    assert len(greedy) == 3
    assert len(polished) == 2
    for p in pts:
        assert any(distance(p, c) <= 1.0 + 1e-9 for c in polished)


def test_swap_budget_formula(monkeypatch):
    # disk_cover_approx hands local search min(ceil(1/eps^2), 3) wherever
    # that is finite, boundaries included, and 3 where 1/eps^2 overflows
    budgets = []
    monkeypatch.setattr("geoburn.cover.disk_cover_local_search",
                        lambda pts, r, chosen, cands, budget, masks:
                        budgets.append(budget) or chosen)
    pts = [Point(0.0, 0.0), Point(1.0, 0.0)]
    sweep = (1e-300, 1e-160, 1e-3, 0.3, 0.49, 0.5, 0.51, 0.6,
             1 / math.sqrt(2), 0.70710678, 0.7072, 0.9, 1.0, 1.5, 1e300)
    for eps in sweep:
        disk_cover_approx(pts, 1.0, pts, eps)
    want = [3 if eps < 1e-100 else min(math.ceil(1.0 / (eps * eps)), 3)
            for eps in sweep]
    assert budgets == want
    assert set(budgets) == {0, 1, 2, 3}


def _cover_hole_reference(need, cand_masks, size):
    # the plain enumeration: the first combination, in itertools order,
    # of `size` candidates meeting `need` whose masks cover it
    if size == 0:
        return None
    useful = [i for i, m in enumerate(cand_masks) if m & need]
    for combo in itertools.combinations(useful, size):
        got = 0
        for i in combo:
            got |= cand_masks[i]
        if need & ~got == 0:
            return combo
    return None


def _local_search_reference(points, radius, chosen, candidates, swap_budget):
    # disk_cover_local_search without its caps, by plain enumeration:
    # every drop set's union recomputed, every hole enumerated
    cand_masks = coverage_masks(candidates, radius, points)
    full = (1 << len(points)) - 1
    current = list(chosen)
    improved = True
    while improved:
        improved = False
        masks = [coverage_mask(c, radius, points) for c in current]
        for j in range(2, min(swap_budget, len(current)) + 1):
            for drop in itertools.combinations(range(len(current)), j):
                base = 0
                for i, m in enumerate(masks):
                    if i not in drop:
                        base |= m
                need = full & ~base
                repl = () if need == 0 else _cover_hole_reference(
                    need, cand_masks, j - 1)
                if repl is not None:
                    current = [c for i, c in enumerate(current) if i not in drop]
                    current.extend(candidates[i] for i in repl)
                    improved = True
                    break
            if improved:
                break
    return current


def test_cover_hole_matches_enumeration():
    # duplicate masks, empty masks, and need bits no candidate covers
    rng = random.Random(314)
    found = [0, 0, 0, 0]
    for _ in range(4000):
        bits = rng.randint(1, 9)
        pool = [rng.getrandbits(bits) & rng.getrandbits(bits)
                for _ in range(rng.randint(1, 5))]
        masks = [rng.choice(pool) if rng.random() < 0.5
                 else rng.getrandbits(bits) & rng.getrandbits(bits)
                 for _ in range(rng.randint(0, 24))]
        need = rng.getrandbits(bits + 1)
        size = rng.randint(1, 3)
        want = _cover_hole_reference(need, masks, size)
        assert _cover_hole(need, _MaskGroups(masks), size) == want, \
            (need, masks, size)
        found[size] += want is not None
    # every size meets holes that do get covered
    assert min(found[1:]) > 100


def test_local_search_matches_enumeration():
    # on this line only a 4-for-3 swap improves greedy's five disks
    pts = [Point(x, 0.0) for x in (0.1, 1.7, 1.9, 3.3, 3.4, 5.0, 5.8, 7.8, 10.7)]
    cands = candidate_centers(pts, circumcenters=False)
    chosen = disk_cover_greedy(pts, 1.0, cands)
    assert len(chosen) == 5
    assert len(disk_cover_local_search(pts, 1.0, chosen, cands, 3)) == 5
    polished = disk_cover_local_search(pts, 1.0, chosen, cands, 4)
    assert len(polished) == 4
    assert polished == _local_search_reference(pts, 1.0, chosen, cands, 4)

    rng = random.Random(2718)
    for _ in range(40):
        n = rng.randint(4, 13)
        pts = [Point(rng.uniform(0, 8), rng.uniform(0, 8)) for _ in range(n)]
        radius = rng.uniform(1.0, 2.5)
        cands = candidate_centers(pts, circumcenters=False)
        chosen = disk_cover_greedy(pts, radius, cands)
        want = _local_search_reference(pts, radius, chosen, cands, 4)
        assert disk_cover_local_search(pts, radius, chosen, cands, 4) == want


def _disk_graph_reference(points, radii):
    # disk_graph by the all-pairs loop
    n = len(points)
    nbrs = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if distance(points[i], points[j]) <= radii[i] + radii[j] + TOL:
                nbrs[i].add(j)
                nbrs[j].add(i)
    return nbrs


def _dominating_reference(neighbors):
    # dominating_set_greedy by the eager scan over every vertex per pick
    n = len(neighbors)
    undominated = set(range(n))
    picked = []
    while undominated:
        best_gain, best_v = -1, -1
        for v in range(n):
            gain = len(undominated & (neighbors[v] | {v}))
            if gain > best_gain:
                best_gain, best_v = gain, v
        picked.append(best_v)
        undominated -= neighbors[best_v] | {best_v}
    return picked


def _nonuniform_instance(seed):
    # uniform or three-hub clustered points on a side of 10 sqrt(n / 20),
    # a tenth of them doubled up, rates from {1, 1.5, 2} or up to 1e6,
    # some moved by 1e12
    rng = random.Random(seed)
    n = rng.randint(1, 300)
    span = 10.0 * math.sqrt(n / 20.0)
    hubs = [(rng.uniform(0, span), rng.uniform(0, span)) for _ in range(3)]
    coords = []
    for _ in range(n):
        if coords and rng.random() < 0.1:
            coords.append(rng.choice(coords))
        elif seed % 2:
            hx, hy = rng.choice(hubs)
            coords.append((rng.gauss(hx, span / 20.0), rng.gauss(hy, span / 20.0)))
        else:
            coords.append((rng.uniform(0, span), rng.uniform(0, span)))
    if seed % 3 == 0:
        coords = [(x + 1e12, y + 1e12) for x, y in coords]
    if seed % 4 == 3:
        rates = [10.0 ** rng.uniform(0.0, 6.0) for _ in range(n)]
    else:
        rates = [rng.choice((1.0, 1.5, 2.0)) for _ in range(n)]
    return Instance.planar(coords, rates=rates)


def test_disk_graph_and_dominating_match_reference():
    edges_at_zero_radius = 0
    for seed in range(12):
        inst = _nonuniform_instance(seed)
        for delta in range(1, 13):
            radii = [(delta - 1) / 2.0 * r for r in inst.rates]
            want = _disk_graph_reference(inst.points, radii)
            assert disk_graph(inst.points, radii) == want, (seed, delta)
            assert dominating_set_greedy(want) == _dominating_reference(want), \
                (seed, delta)
            if delta == 1:
                edges_at_zero_radius += sum(map(len, want))
    # the doubled-up points meet at radius 0
    assert edges_at_zero_radius > 0


def test_disk_graph_far_from_origin():
    # edges at exactly r_i + r_j, one of them the largest reach, at
    # coordinates up to 3e15 (where one ulp is 0.5)
    for base in (0.0, 1e12, -3e15):
        pts = [Point(base, base), Point(base + 2.0, base),
               Point(base + 2.0, base + 6.0), Point(base + 2.0, base + 12.0),
               Point(base + 9.5, base)]
        radii = [1.0, 1.0, 3.0, 3.0, 0.0]
        assert disk_graph(pts, radii) == [{1}, {0}, {3}, {2}, set()], base


def test_k_burning_nonuniform_matches_reference(monkeypatch):
    # horizons and traces as with the all-pairs graph and the eager
    # greedy, and the sources a subset: only burnt ignitions are dropped
    got = {}
    cases = [(seed, k) for seed in range(6) for k in (1, 2, 3)]
    for seed, k in cases:
        inst = _nonuniform_instance(seed)
        got[seed, k] = k_burning_nonuniform(inst, k, 0.5)
    monkeypatch.setattr(burn2d, "disk_graph", _disk_graph_reference)
    monkeypatch.setattr(burn2d, "dominating_set_greedy", _dominating_reference)
    monkeypatch.setattr(burn2d, "_drop_burnt_ignitions",
                        lambda points, horizon, sources: sources)
    for seed, k in cases:
        horizon, sched, trace = got[seed, k]
        h_ref, s_ref, t_ref = k_burning_nonuniform(_nonuniform_instance(seed), k, 0.5)
        assert horizon == h_ref, (seed, k)
        assert trace.entries == t_ref.entries, (seed, k)
        assert set(sched.sources) <= set(s_ref.sources), (seed, k)


def test_disk_graph_and_dominating_set():
    pts = [Point(0, 0), Point(2, 0), Point(4, 0)]
    nbrs = disk_graph(pts, [1.0, 1.0, 1.0])
    assert nbrs == [{1}, {0, 2}, {1}]
    assert dominating_set_greedy(nbrs) == [1]

    lonely = disk_graph(pts, [0.5, 0.5, 0.5])
    assert lonely == [set(), set(), set()]
    assert dominating_set_greedy(lonely) == [0, 1, 2]


def test_zone_of():
    c = Point(0.0, 0.0)
    delta = 27.0
    width = 2.0 * math.pi / ZONE_COUNT
    assert zone_of(Point(26.5, 0.0), c, delta) == 0
    mid = 26.5 * math.cos(1.5 * width), 26.5 * math.sin(1.5 * width)
    assert zone_of(Point(*mid), c, delta) == 1
    assert zone_of(Point(25.0, 0.0), c, delta) is None
    assert zone_of(Point(28.0, 0.0), c, delta) is None
    # inner boundary included
    assert zone_of(Point(26.0, 0.0), c, delta) == 0


def test_zone_diameter_fits_late_reach():
    # a late fire covers any zone: diameter 2 sin(pi/13) sits a clear
    # 1e-3 below the guaranteed reach fraction 13/27
    frac = zone_diameter_fraction()
    assert frac + 1e-3 <= LATE_REACH_FRACTION + 1e-6
    assert math.isclose(frac, 2.0 * math.sin(math.pi / 13.0))
    assert math.isclose(ANNULUS_INNER_FRACTION + 1.0 / 27.0, 1.0)


def test_zone_diameter_is_tight_bound():
    # every pair of sampled points in one zone is within the stated diameter
    rng = random.Random(5)
    width = 2.0 * math.pi / ZONE_COUNT
    worst = 0.0
    for _ in range(4000):
        r1 = rng.uniform(ANNULUS_INNER_FRACTION, 1.0)
        r2 = rng.uniform(ANNULUS_INNER_FRACTION, 1.0)
        t1 = rng.uniform(0.0, width)
        t2 = rng.uniform(0.0, width)
        d = math.hypot(r1 * math.cos(t1) - r2 * math.cos(t2),
                       r1 * math.sin(t1) - r2 * math.sin(t2))
        worst = max(worst, d)
    assert worst <= zone_diameter_fraction() + 1e-12


def test_template_covers_at_budget():
    assert verify_template(FIVE_COVER_CENTERS, FIVE_COVER_RADIUS, resolution=0.05)
    assert sample_covering_radius(FIVE_COVER_CENTERS) <= FIVE_COVER_RADIUS


def test_template_rejects_small_radius():
    assert not verify_template(FIVE_COVER_CENTERS, 0.57, resolution=0.05)
    assert not verify_template((), 1.0)


def test_verifier_exact_boundary():
    # one disk of radius exactly 1 covers the unit disk; 0.999 does not
    assert verify_template(((0.0, 0.0),), 1.0, resolution=0.25)
    assert not verify_template(((0.0, 0.0),), 0.999, resolution=0.25)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            verify_template(((0.0, 0.0),), 1.0, resolution=bad)


def test_scaled_template_geometry():
    ctr = Point(10.0, -3.0)
    pts = scaled_template(ctr, 4.0)
    assert len(pts) == 5
    for p, (tx, ty) in zip(pts, FIVE_COVER_CENTERS):
        assert math.isclose(p.x, 10.0 + 4.0 * tx)
        assert math.isclose(p.y, -3.0 + 4.0 * ty)
    # scaled disks of radius 0.6094 * delta cover the delta-disk: spot check
    rng = random.Random(11)
    for _ in range(500):
        ang = rng.uniform(0, 2 * math.pi)
        rad = 4.0 * math.sqrt(rng.random())
        q = Point(ctr.x + rad * math.cos(ang), ctr.y + rad * math.sin(ang))
        assert min(distance(q, p) for p in pts) <= FIVE_COVER_RADIUS * 4.0 + 1e-9


def test_max_coverage_groups():
    groups = [[0b11, 0b100], [0b111]]
    assert max_coverage_groups(groups) == [(1, 0)]

    # tie prefers the lower group index
    even = [[0b11], [0b1100]]
    assert max_coverage_groups(even) == [(0, 0), (1, 0)]

    # a used label blocks later picks from other groups
    labeled = [[0b11, 0b100], [0b111]]
    labels = [["a", "b"], ["a"]]
    picks = max_coverage_groups(labeled, labels)
    assert picks == [(1, 0)]
    labels2 = [["a", "b"], ["a"]]
    groups2 = [[0b11000, 0b100000], [0b111]]
    assert max_coverage_groups(groups2, labels2) == [(1, 0), (0, 1)]
