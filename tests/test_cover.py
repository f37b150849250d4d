"""Covering primitives, the five-disk template, and annulus zones."""

import itertools
import math
import random
from functools import reduce
from operator import or_

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geoburn import burn2d
from geoburn.burn2d import k_burning_nonuniform
from geoburn.core import TOL, BurnSource, Instance, Point, burns, distance
from geoburn.cover import (
    _MaskGroups,
    _coverable,
    _drop_holes,
    CapacityError,
    ANNULUS_INNER_FRACTION,
    FIVE_COVER_CENTERS,
    FIVE_COVER_RADIUS,
    LATE_REACH_FRACTION,
    ZONE_COUNT,
    candidate_centers,
    circumcenter,
    closed_neighborhoods,
    coverage_mask,
    coverage_masks,
    disk_cover_approx,
    disk_cover_greedy,
    disk_cover_local_search,
    disk_graph,
    dominating_set_greedy,
    greedy_cover,
    max_coverage_groups,
    maximal_masks,
    packing_lower_bound,
    sample_covering_radius,
    scaled_template,
    verify_template,
    zone_diameter_fraction,
    zone_of,
)
from geoburn.oracle import exact_dominating_set


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


def test_greedy_cover_skips_masks_sharing_a_tag():
    # bits above full are tags: b shares a's tag, so c is picked instead,
    # and tag bits never count as gain
    a, b, c = 0b00111 | 1 << 5, 0b11000 | 1 << 5, 0b01000 | 0b111 << 6
    assert greedy_cover([a, b, c], 0b11111) == ([0, 2], 0b10000)
    assert greedy_cover([a, b, c], 0b11111 | 1 << 5) == ([0, 1], 0)


def reference_maximal_masks(entries):
    # the quadratic filter: drop zero masks, masks another mask strictly
    # contains, and every repeat of an earlier equal mask
    return [(ident, m) for j, (ident, m) in enumerate(entries)
            if m
            and not any(m & ~o == 0 and o != m for _, o in entries)
            and not any(o == m for _, o in entries[:j])]


def test_maximal_masks_frozen_case():
    entries = [("a", 0b0011), ("b", 0), ("c", 0b0001), ("d", 0b0011),
               ("e", 0b1100), ("f", 0b0110), ("g", 0b0100)]
    # c lies inside a, d repeats a, g lies inside e and f; order is kept
    assert maximal_masks(entries) == [("a", 0b0011), ("e", 0b1100), ("f", 0b0110)]
    assert maximal_masks([]) == []
    assert maximal_masks([(0, 0), (1, 0)]) == []
    # a nested chain keeps only its top, wherever it sits
    chain = [(i, (1 << (i + 1)) - 1) for i in range(6)]
    assert maximal_masks(chain) == [(5, 0b111111)]
    assert maximal_masks(chain[::-1]) == [(5, 0b111111)]


def test_maximal_masks_matches_reference():
    rng = random.Random(2024)
    for _ in range(400):
        n = rng.randint(1, 10)
        entries = []
        for i in range(rng.randint(0, 30)):
            roll = rng.random()
            if roll < 0.1:
                m = 0
            elif roll < 0.3 and entries:
                m = rng.choice(entries)[1]  # a duplicate
            elif roll < 0.5 and entries:
                m = rng.choice(entries)[1] & rng.getrandbits(n)  # nested inside one
            else:
                m = rng.getrandbits(n) & rng.getrandbits(n)
            entries.append((i, m))
        got = maximal_masks(entries)
        assert got == reference_maximal_masks(entries)
        # each dropped nonzero mask lies inside a kept one
        for _, m in entries:
            assert not m or any(m & ~k == 0 for _, k in got)


def test_greedy_cover_single_disk_via_midpoint():
    pts = [Point(0, 0), Point(3, 0)]
    cands = candidate_centers(pts)
    cover = disk_cover_greedy(coverage_masks(cands, 2.0, pts), len(pts))
    assert [cands[i] for i in cover] == [Point(1.5, 0.0)]


def test_greedy_cover_requires_coverable():
    with pytest.raises(ValueError):
        disk_cover_greedy(coverage_masks([Point(0, 0)], 1.0, [Point(0, 0), Point(5, 0)]), 2)


def test_greedy_cover_random_sweep():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(1, 14)
        pts = [Point(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]
        radius = rng.uniform(0.5, 4.0)
        cands = candidate_centers(pts)
        cover = [cands[i] for i in disk_cover_greedy(coverage_masks(cands, radius, pts), n)]
        for p in pts:
            assert any(distance(p, c) <= radius + 1e-9 for c in cover)


def test_local_search_beats_plain_greedy():
    # the gain-6 disk at 2.0 straddles both optimal windows [0, 2] and
    # [2.8, 4.8], stranding the flanks; greedy pays 3, the 3-for-2 swap
    # recovers the optimal 2
    xs = (0.0, 0.1, 0.2, 1.8, 1.9, 2.0, 2.8, 2.9, 3.0, 4.6, 4.7, 4.8)
    pts = [Point(x, 0.0) for x in xs]
    cands = candidate_centers(pts)
    greedy = disk_cover_greedy(coverage_masks(cands, 1.0, pts), len(pts))
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
                        lambda masks, n, chosen, budget:
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
    # every drop set's union recomputed, every hole enumerated, and each
    # swap taking the lexicographically first j - 1 candidates
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


def _random_holes(rng):
    # duplicate masks, empty masks, and need bits no candidate covers
    for _ in range(4000):
        bits = rng.randint(1, 9)
        pool = [rng.getrandbits(bits) & rng.getrandbits(bits)
                for _ in range(rng.randint(1, 5))]
        masks = [rng.choice(pool) if rng.random() < 0.5
                 else rng.getrandbits(bits) & rng.getrandbits(bits)
                 for _ in range(rng.randint(0, 24))]
        yield rng.getrandbits(bits + 1), masks


def _cluster_holes(rng):
    # disks over three or four tight clusters ten units apart, and holes
    # drawn from one to three of them, so that a hole spanning clusters
    # needs a disk per cluster: the holes the hitting walk settles
    for _ in range(400):
        hubs = [(10.0 * i, 10.0 * rng.random()) for i in range(rng.randint(3, 4))]
        sizes = [rng.randint(2, 4) for _ in hubs]
        pts = [Point(rng.gauss(x, 0.5), rng.gauss(y, 0.5))
               for (x, y), k in zip(hubs, sizes) for _ in range(k)]
        cands = candidate_centers(pts, circumcenters=False)
        cands = [cands[i] for i in sorted(rng.sample(range(len(cands)), min(20, len(cands))))]
        masks = coverage_masks(cands, rng.uniform(0.3, 1.5), pts)
        spans = [((1 << k) - 1) << sum(sizes[:c]) for c, k in enumerate(sizes)]
        need = 0
        for span in rng.sample(spans, rng.randint(1, 3)):
            need |= span & (rng.getrandbits(len(pts)) | (span & -span))
        yield need, masks


def _covered_within(need, cand_masks, r):
    # whether at most r candidates cover `need`, by plain enumeration
    return need == 0 or any(_cover_hole_reference(need, cand_masks, size) is not None
                            for size in range(1, r + 1))


def test_coverable_matches_enumeration():
    rng = random.Random(314)
    found = {family: [0, 0, 0, 0] for family in ("random", "cluster")}
    settled = searched = 0
    for family, holes in (("random", _random_holes(rng)),
                          ("cluster", _cluster_holes(rng))):
        for need, masks in holes:
            mg = _MaskGroups(masks)
            mg.budget = start = 10 ** 9
            size = rng.randint(1, 3)
            used = _coverable(need, size, mg)
            nodes = start - mg.budget
            assert (used is not None) == _covered_within(need, masks, size), (need, masks, size)
            found[family][size] += used is not None and need != 0
            if used is not None:
                # at most `size` candidates, each the lowest index of its
                # equal-mask group, that cover the hole
                assert len(used) <= size, (need, masks, size, used)
                assert all(masks.index(masks[i]) == i for i in used), (masks, used)
                assert need & ~reduce(or_, (masks[i] for i in used), 0) == 0, (need, masks, used)
            # a call that spends no node was settled by the hitting walk
            settled += family == "cluster" and need != 0 and nodes == 0
            if nodes:
                searched += 1
                # the same search under its exact node count, and one short of it
                mg.budget = nodes
                assert _coverable(need, size, mg) == used
                mg.budget = nodes - 1
                with pytest.raises(CapacityError):
                    _coverable(need, size, mg)
    # every size meets holes that do get covered, in both families; the
    # walk settles many of the cluster holes, and many holes get searched
    assert min(found["random"][1:]) > 100
    assert min(found["cluster"][1:]) > 20
    assert settled >= 100
    assert searched >= 100


def test_coverable_takes_first_cover_found():
    # the search branches on the hole's lowest point: mask 1 holds it, and
    # mask 2 then covers the rest.  The lexicographically first pair of
    # candidates that covers the hole is (0, 3).
    masks = [0b0110, 0b0011, 0b1100, 0b1001]
    assert _coverable(0b1111, 2, _MaskGroups(masks)) == (1, 2)
    assert _cover_hole_reference(0b1111, masks, 2) == (0, 3)
    # a repeated mask answers with its lowest index
    assert _coverable(0b0011, 1, _MaskGroups([0, 0b0111, 0b0011, 0b0111])) == (1,)
    assert _coverable(0, 0, _MaskGroups(masks)) == ()
    assert _coverable(0b0001, 0, _MaskGroups(masks)) is None
    mg = _MaskGroups(masks)
    mg.budget = 0
    with pytest.raises(CapacityError):
        _coverable(0b1111, 2, mg)


def _assert_locally_optimal(masks, n, chosen, got, budget):
    # the output covers every point, is no larger than the input, and no
    # drop set of j = 2..budget of its disks leaves a hole that j - 1
    # candidates cover
    full = (1 << n) - 1
    assert reduce(or_, (masks[i] for i in got), 0) == full, (chosen, got)
    assert len(got) <= len(chosen), (chosen, got)
    for j in range(2, budget + 1):
        for drop in itertools.combinations(range(len(got)), j):
            hole = full & ~reduce(or_, (masks[c] for i, c in enumerate(got) if i not in drop), 0)
            assert not _covered_within(hole, masks, j - 1), (got, drop)


def test_local_search_matches_enumeration():
    # on this line only a 4-for-3 swap improves greedy's five disks
    pts = [Point(x, 0.0) for x in (0.1, 1.7, 1.9, 3.3, 3.4, 5.0, 5.8, 7.8, 10.7)]
    cands = candidate_centers(pts, circumcenters=False)
    masks = coverage_masks(cands, 1.0, pts)
    chosen = disk_cover_greedy(masks, len(pts))
    assert len(chosen) == 5
    assert len(disk_cover_local_search(masks, len(pts), chosen, 3)) == 5
    polished = [cands[i] for i in disk_cover_local_search(masks, len(pts), chosen, 4)]
    assert len(polished) == 4
    assert polished == _local_search_reference(pts, 1.0, [cands[i] for i in chosen], cands, 4)

    rng = random.Random(2718)
    for _ in range(40):
        n = rng.randint(4, 13)
        pts = [Point(rng.uniform(0, 8), rng.uniform(0, 8)) for _ in range(n)]
        radius = rng.uniform(1.0, 2.5)
        cands = candidate_centers(pts, circumcenters=False)
        masks = coverage_masks(cands, radius, pts)
        chosen = disk_cover_greedy(masks, n)
        for budget in (2, 3, 4):
            want = _local_search_reference(pts, radius, [cands[i] for i in chosen], cands,
                                           budget)
            got = disk_cover_local_search(masks, n, chosen, budget)
            assert [cands[i] for i in got] == want, (pts, radius, budget)
            _assert_locally_optimal(masks, n, chosen, got, budget)


def test_drop_holes_match_combinations():
    # every drop set in itertools order, j ascending, with its hole
    # recomputed from scratch; j > count yields nothing
    rng = random.Random(1618)
    for count in range(10):
        for budget in range(2, 6):
            for _ in range(5):
                bits = rng.randint(1, 12)
                full = (1 << bits) - 1
                masks = [rng.getrandbits(bits) & rng.getrandbits(bits) for _ in range(count)]
                want = [(drop, full & ~reduce(or_, (m for i, m in enumerate(masks)
                                                    if i not in drop), 0))
                        for j in range(2, budget + 1)
                        for drop in itertools.combinations(range(count), j)]
                assert list(_drop_holes(masks, full, budget)) == want, (masks, budget)


@st.composite
def _swap_instances(draw):
    # coincident points (a few sites, many repeats), collinear points
    # (one line, unit steps) and three hubs seven units apart, so that
    # some holes span hubs and the hitting walk settles them
    n = draw(st.integers(3, 12))
    shape = draw(st.sampled_from(["coincident", "collinear", "hubs"]))
    if shape == "coincident":
        sites = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                              min_size=2, max_size=5))
        pts = [Point(2.0 * x, 2.0 * y) for x, y in (draw(st.sampled_from(sites))
                                                   for _ in range(n))]
    elif shape == "collinear":
        slope = draw(st.sampled_from([0.0, 1.0, -0.5]))
        xs = draw(st.lists(st.integers(0, 20), min_size=n, max_size=n))
        pts = [Point(float(x), slope * x) for x in xs]
    else:
        hubs = ((0.0, 0.0), (7.0, 0.0), (3.5, 6.0))
        offsets = draw(st.lists(st.tuples(st.integers(0, 2), st.floats(-2.0, 2.0),
                                          st.floats(-2.0, 2.0)), min_size=n, max_size=n))
        pts = [Point(hubs[h][0] + dx, hubs[h][1] + dy) for h, dx, dy in offsets]
    return pts, draw(st.floats(0.5, 3.0)), draw(st.integers(2, 4)), draw(st.booleans())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_swap_instances())
def test_local_search_matches_reference_on_adversarial_points(case):
    # from greedy's cover, or from a disk on every distinct point, which
    # leaves many swaps to find
    pts, radius, budget, greedy = case
    cands = candidate_centers(pts, circumcenters=False)
    masks = coverage_masks(cands, radius, pts)
    chosen = (disk_cover_greedy(masks, len(pts)) if greedy
              else [i for i, c in enumerate(cands) if c in pts])
    want = _local_search_reference(pts, radius, [cands[i] for i in chosen], cands, budget)
    got = disk_cover_local_search(masks, len(pts), chosen, budget)
    assert [cands[i] for i in got] == want
    _assert_locally_optimal(masks, len(pts), chosen, got, budget)


def test_approx_builds_masks_once(monkeypatch):
    # the candidates' masks are built once per call, and local search
    # reads the chosen disks' masks from them
    calls = []
    masks = coverage_masks

    def counted(*args):
        calls.append(1)
        return masks(*args)

    monkeypatch.setattr("geoburn.cover.coverage_masks", counted)
    xs = (0.0, 0.1, 0.2, 1.8, 1.9, 2.0, 2.8, 2.9, 3.0, 4.6, 4.7, 4.8)
    pts = [Point(x, 0.0) for x in xs]
    assert len(disk_cover_approx(pts, 1.0, candidate_centers(pts), epsilon=0.5)) == 2
    assert len(calls) == 1


def _disk_graph_reference(points, radii):
    # disk_graph by the all-pairs loop; points as Points or coordinate rows
    points = [Point(float(x), float(y)) for x, y in points]
    n = len(points)
    nbrs = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if distance(points[i], points[j]) <= radii[i] + radii[j] + TOL:
                nbrs[i].add(j)
                nbrs[j].add(i)
    return nbrs


def _as_sets(graph):
    # disk_graph's neighbour arrays as sets, after checking each is a 1-D
    # integer array with no self-loop and no repeated index
    sets = []
    for v, nb in enumerate(graph):
        assert isinstance(nb, np.ndarray) and nb.ndim == 1, v
        assert np.issubdtype(nb.dtype, np.integer), v
        sets.append(set(nb.tolist()))
        assert v not in sets[-1] and len(sets[-1]) == len(nb), v
    return sets


def _closed_reference(neighbors):
    # closed_neighborhoods by one OR per edge
    closed = []
    for v, nb in enumerate(neighbors):
        m = 1 << v
        for u in nb:
            m |= 1 << u
        closed.append(m)
    return closed


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


def _nonuniform_instance(seed, max_n=300):
    # uniform or three-hub clustered points on a side of 10 sqrt(n / 20),
    # n up to max_n, a tenth of them doubled up, rates from {1, 1.5, 2} or
    # up to 1e6, some moved by 1e12
    rng = random.Random(seed)
    n = rng.randint(1, max_n)
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
            got = disk_graph(inst.points, radii)
            assert _as_sets(got) == want, (seed, delta)
            dom = _dominating_reference(want)
            assert dominating_set_greedy(want) == dom, (seed, delta)
            assert dominating_set_greedy(got) == dom, (seed, delta)
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
        assert _as_sets(disk_graph(pts, radii)) == [{1}, {0}, {3}, {2}, set()], base


@pytest.mark.parametrize("offset", [0.0, -3e15])
@pytest.mark.parametrize("scale", [0.0, 1.0, 1e300, 1e308])
def test_disk_graph_adversarial(offset, scale):
    # a column of 210 points at one x, 0.5 apart, spans several row
    # blocks; points 63 and 64 coincide across a block boundary, and a few
    # stragglers sit beside the column or on it.  Radii are 0 or
    # {0.25, 0.5} times scale: edges at exactly r_i + r_j, zero radii, and
    # reaches whose squares (and at 1e308, sums) overflow.  One more point
    # lies scale above the column: at 1e300 and up its distance to the
    # column rounds to scale, a tie that math.hypot settles
    rng = random.Random(f"{offset}/{scale}")
    ys = [offset + 0.5 * j for j in range(210)]
    ys[64] = ys[63]
    pts = [Point(offset, y) for y in ys]
    pts += [Point(offset + rng.choice([-1.0, -0.5, 0.0, 0.5, 3.0]), rng.choice(ys))
            for _ in range(40)]
    pts.append(Point(offset, offset + scale))
    radii = [rng.choice([0.0, 0.0, 0.25 * scale, 0.5 * scale]) for _ in pts[:-1]]
    radii.append(0.5 * scale)
    assert _as_sets(disk_graph(pts, radii)) == _disk_graph_reference(pts, radii)


def test_k_burning_nonuniform_matches_reference(monkeypatch):
    # the packing gate changes no horizon, schedule or verdict, greedy or
    # strict: each guess it settles is rejected without it too, with a set
    # no smaller than its bound.  Ungated, horizons and traces are as with
    # the all-pairs graph and the eager greedy, and the sources a subset:
    # only burnt ignitions are dropped
    cases = [(seed, k, strict) for seed in range(6) for k in (1, 2, 3)
             for strict in (False, True)]

    def solve(seed, k, strict):
        return k_burning_nonuniform(_nonuniform_instance(seed), k, 0.5, strict_oracle=strict)

    gated = {case: solve(*case) for case in cases}
    # the strict horizons at n = 29-198, frozen from the branch and bound
    # that searched on its own before the exact dominating sets moved onto
    # cover._coverable
    assert [gated[seed, k, True][0] for seed in range(6) for k in (1, 2, 3)] == [
        19, 15, 12, 7, 6, 5, 11, 8, 7, 704083, 704083, 704083, 16, 12, 10, 9, 7, 6]
    monkeypatch.setattr(burn2d, "packing_lower_bound", lambda coords, reaches, limit: 0)
    ungated = {case: solve(*case) for case in cases}
    lower_bounds = 0
    for case in cases:
        (horizon, sched, trace), (h_un, s_un, t_un) = gated[case], ungated[case]
        assert (horizon, sched) == (h_un, s_un), case
        assert [(e.delta, e.accepted) for e in trace.entries] == \
            [(e.delta, e.accepted) for e in t_un.entries], case
        for e, e_un in zip(trace.entries, t_un.entries):
            assert e_un.kind == "size", case
            if e.kind == "lower-bound":
                lower_bounds += 1
                assert e.measure > e.threshold and not e_un.accepted, (case, e)
                # strict: the exact search found no set, measure infinity
                assert e_un.measure >= e.measure, (case, e, e_un)
            else:
                assert e == e_un, case
    assert lower_bounds > 0
    monkeypatch.setattr(burn2d, "disk_graph", _disk_graph_reference)
    monkeypatch.setattr(burn2d, "dominating_set_greedy", _dominating_reference)
    monkeypatch.setattr(burn2d, "_drop_burnt_ignitions",
                        lambda sources, masks: sources)
    for seed, k, strict in cases:
        if strict:
            continue
        horizon, sched, trace = ungated[seed, k, strict]
        h_ref, s_ref, t_ref = solve(seed, k, strict)
        assert horizon == h_ref, (seed, k)
        assert trace.entries == t_ref.entries, (seed, k)
        assert set(sched.sources) <= set(s_ref.sources), (seed, k)


# one point: x and y on a small grid (coincident and collinear points),
# an optional far coordinate that replaces x, and a rate exponent
_PACKED_POINT = st.tuples(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.5]),
                          st.sampled_from([0.0, 0.5, 1.0, 2.5]),
                          st.sampled_from([None, None, None, 1e300, -1e300]),
                          st.floats(0.0, 6.0))


@settings(max_examples=300, deadline=None)
@given(st.lists(_PACKED_POINT, min_size=1, max_size=9), st.booleans(),
       st.sampled_from([0.0, 1e12, -1e12]), st.sampled_from([1.0, 1e294]))
@example([(0.0, 0.0, None, 0.0), (2.0, 0.0, None, 0.0), (4.0, 0.0, None, 0.0)],
         True, 0.0, 1.0)
@example([(0.0, 0.0, 1e300, 6.0), (0.0, 0.0, -1e300, 0.0), (1.0, 1.0, None, 3.0)],
         False, 1e12, 1e294)
def test_packing_lower_bound_never_exceeds_exact_dominating_set(points, line, offset,
                                                                rate_scale):
    # k_burning_nonuniform's reaches r_i + max(r) + TOL over the radii
    # (delta - 1) / 2 rate_i: the packing never holds more points than a
    # minimum dominating set of the graph has vertices.  On a line (y = 0)
    # all points are collinear; rates span up to 1e6, and at the far
    # coordinates a scale of 1e294 makes reaches whose squares overflow
    coords = [((far if far is not None else x) + offset, (0.0 if line else y) + offset)
              for x, y, far, _ in points]
    rates = np.array([rate_scale * 10.0 ** e for *_, e in points])
    for delta in range(1, 7):
        radii = (delta - 1) / 2.0 * rates
        reaches = radii + (radii.max() + TOL)
        dominators = exact_dominating_set(_disk_graph_reference(coords, radii.tolist()))
        bound = packing_lower_bound(np.array(coords), reaches, len(coords))
        assert 1 <= bound <= len(dominators), (delta, bound, dominators)
        # the count stops once it holds more than the limit
        assert packing_lower_bound(np.array(coords), reaches, 0) == 1


def test_disk_graph_and_dominating_set():
    pts = [Point(0, 0), Point(2, 0), Point(4, 0)]
    nbrs = disk_graph(pts, [1.0, 1.0, 1.0])
    assert _as_sets(nbrs) == [{1}, {0, 2}, {1}]
    assert dominating_set_greedy(nbrs) == [1]

    lonely = disk_graph(pts, [0.5, 0.5, 0.5])
    assert _as_sets(lonely) == [set(), set(), set()]
    assert dominating_set_greedy(lonely) == [0, 1, 2]


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 129])
def test_closed_neighborhoods_match_reference(n):
    # sizes around the 64-row block; a quarter of the points double up
    # an earlier one, and radii of 0 leave some vertices isolated and
    # join coincident ones only
    rng = random.Random(n)
    pts = []
    for _ in range(n):
        if pts and rng.random() < 0.25:
            pts.append(rng.choice(pts))
        else:
            pts.append(Point(rng.uniform(0, 12), rng.uniform(0, 12)))
    for radii in ([0.0] * n, [rng.choice([0.0, 0.5, 1.5]) for _ in range(n)]):
        got = disk_graph(pts, radii)
        want = _as_sets(got)
        assert want == _disk_graph_reference(pts, radii)
        assert closed_neighborhoods(got) == _closed_reference(want), radii
        assert closed_neighborhoods(want) == _closed_reference(want), radii
    assert closed_neighborhoods([set() for _ in range(n)]) == [1 << v for v in range(n)]


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
    assert max_coverage_groups(groups, [["a", "b"], ["c"]]) == [(1, 0)]

    # tie prefers the lower group index
    even = [[0b11], [0b1100]]
    assert max_coverage_groups(even, [["a"], ["b"]]) == [(0, 0), (1, 0)]

    # a used label blocks later picks from other groups
    labeled = [[0b11, 0b100], [0b111]]
    labels = [["a", "b"], ["a"]]
    picks = max_coverage_groups(labeled, labels)
    assert picks == [(1, 0)]
    labels2 = [["a", "b"], ["a"]]
    groups2 = [[0b11000, 0b100000], [0b111]]
    assert max_coverage_groups(groups2, labels2) == [(1, 0), (0, 1)]


def eager_max_coverage_groups(groups, labels):
    # the rescan per round that max_coverage_groups replaced
    used_groups, used_labels = set(), set()
    covered = 0
    picks = []
    while True:
        best_gain, best = 0, None
        for gi, sets in enumerate(groups):
            if gi in used_groups:
                continue
            for si, s in enumerate(sets):
                if labels[gi][si] in used_labels:
                    continue
                gain = (s & ~covered).bit_count()
                if gain > best_gain:
                    best_gain, best = gain, (gi, si)
        if best is None:
            return picks
        gi, si = best
        used_groups.add(gi)
        used_labels.add(labels[gi][si])
        covered |= groups[gi][si]
        picks.append(best)


def test_max_coverage_groups_matches_eager():
    # ties, zero masks, empty groups and labels shared across groups
    rng = random.Random(19)
    for _ in range(1000):
        n = rng.randint(0, 10)
        groups, labels = [], []
        for _ in range(rng.randint(0, 5)):
            size = rng.randint(0, 4)
            groups.append([rng.getrandbits(n) & rng.getrandbits(n) if n else 0
                           for _ in range(size)])
            labels.append([rng.choice("abcde") for _ in range(size)])
        assert max_coverage_groups(groups, labels) == \
            eager_max_coverage_groups(groups, labels)
