"""Disk-covering primitives shared by the planar pipelines.

Contents: candidate center generation (input points, pair midpoints,
circumcenters), coverage masks and the per-solve fire-mask tables, one
lazy greedy set cover (disk covers, with an optional local-search
polish, and dominating sets of disk graphs), the frozen five-disk covering
template with a rigorous verifier, the annulus zones used by the planar
point-model pipeline, and a grouped max-coverage greedy.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import sys
from functools import cache, lru_cache
from typing import Callable, Sequence

import numpy as np

from geoburn.core import POINT, TOL, Instance, Model, Point, _coords, distance, reach_masks

# Five disks of this radius, centered at the template coordinates below,
# cover the closed unit disk.  The coordinates come from an offline
# numerical search (tools/five_cover_search.py); their exact covering
# radius is 0.60938322, below the 0.6094 budget the planar anywhere
# pipeline allots to them.
FIVE_COVER_RADIUS = 0.6094
FIVE_COVER_CENTERS = (
    (0.5809713457599188, -0.002224606090509505),
    (0.2514594393428493, -0.7519340712740225),
    (0.2571714386749738, 0.7498724777654208),
    (-0.5149917674686677, -0.3657246236741287),
    (-0.5134057148230263, 0.37006979368477844),
)

# Late fires in the planar point-model pipeline handle an annulus split
# into 13 equal sectors; each such fire has final radius at least 13/27
# of the guess, and a zone's diameter 2*sin(pi/13) stays safely below.
ZONE_COUNT = 13
ANNULUS_INNER_FRACTION = 26.0 / 27.0
LATE_REACH_FRACTION = 13.0 / 27.0


def circumcenter(a: Point, b: Point, c: Point) -> Point | None:
    """Circumcenter of a triangle, or None when (near-)collinear."""
    abx, aby = b.x - a.x, b.y - a.y
    acx, acy = c.x - a.x, c.y - a.y
    det = 2.0 * (abx * acy - aby * acx)
    if abs(det) < 1e-12:
        return None
    ab2 = abx * abx + aby * aby
    ac2 = acx * acx + acy * acy
    return Point(a.x + (acy * ab2 - aby * ac2) / det,
                 a.y + (abx * ac2 - acx * ab2) / det)


def candidate_centers(points: Sequence[Point], *, midpoints: bool = True,
                      circumcenters: bool = True) -> list[Point]:
    """Centers sufficient for minimum covers by equal disks.

    Any disk covering a subset Q can be recentered at the center of the
    smallest enclosing circle of Q without uncovering anything, and that
    center is an input point, a pair midpoint, or a circumcenter of a
    non-collinear triple.  Order: points, then midpoints, then
    circumcenters; near-duplicates (within TOL) collapse to the first seen,
    found on a grid of cell max(TOL, 2^-40 times the largest coordinate).
    A candidate whose coordinate over the cell is not finite (overflowed,
    or some 10^296 input extents out) is skipped.
    """
    out: list[Point] = []
    buckets: dict[tuple[int, int], list[int]] = {}
    scale = max((max(abs(p.x), abs(p.y)) for p in points), default=0.0)
    cell = max(TOL, scale * 2.0 ** -40)

    def push(p: Point) -> None:
        qx, qy = p.x / cell, p.y / cell
        if not (math.isfinite(qx) and math.isfinite(qy)):
            return
        kx, ky = round(qx), round(qy)
        for nx in (kx - 1, kx, kx + 1):
            for ny in (ky - 1, ky, ky + 1):
                for i in buckets.get((nx, ny), ()):
                    if distance(out[i], p) <= TOL:
                        return
        buckets.setdefault((kx, ky), []).append(len(out))
        out.append(p)

    for p in points:
        push(p)
    if midpoints:
        for a, b in itertools.combinations(points, 2):
            push(Point((a.x + b.x) / 2.0, (a.y + b.y) / 2.0))
    if circumcenters:
        for a, b, c in itertools.combinations(points, 3):
            cc = circumcenter(a, b, c)
            if cc is not None:
                push(cc)
    return out


def coverage_mask(center: Point, radius: float, points: Sequence[Point]) -> int:
    """Bitmask of point indices within ``radius`` (+TOL) of ``center``."""
    return coverage_masks((center,), radius, points)[0]


def coverage_masks(centers: Sequence[Point] | np.ndarray, radius: float | np.ndarray,
                   points: Sequence[Point] | np.ndarray) -> list[int]:
    """coverage_mask for many centers at once: ``core.reach_masks`` at reach radius + TOL.

    Centers and points are Point sequences or (m, 2) float arrays; the
    radius is one for all centers or an array of one per center.
    """
    return reach_masks(centers, np.full(len(centers), radius + TOL), points)


def fire_masks(inst: Instance, model: Model, sources: Sequence[int]
               ) -> Callable[[int], list[tuple[object, int]]]:
    """A solve's fires as a table ``at(rho)``, each rho built once on first use.

    ``at(rho)`` holds an (ident, coverage mask) entry per fire that spreads
    rho steps, at radius ``rate * rho``.  Point model: the idents are
    ``sources``, in order.  Anywhere model: they are centers, the candidate
    centers in the plane (built once), and on a line the points moved left
    by the radius (a fire slid right until its right edge sits on a point
    keeps all it covered), no further than the most negative float (a fire
    stopped there covers a superset).
    """
    pts = inst.points
    P = _coords(pts)
    if model.tag == POINT:
        C, rates = P[list(sources)], np.array([inst.rates[i] for i in sources])

        def build(rho: int) -> list[tuple[object, int]]:
            return list(zip(sources, coverage_masks(C, rates * rho, P)))
    else:
        rate = inst.rates[0] if inst.rates else 1.0
        base = candidate_centers(pts) if inst.dimension == 2 else None
        B = None if base is None else _coords(base)

        def build(rho: int) -> list[tuple[object, int]]:
            radius = rate * rho
            if base is not None:
                return list(zip(base, coverage_masks(B, radius, P)))
            cs = [Point(max(p.x - radius, -sys.float_info.max), 0.0) for p in pts]
            return list(zip(cs, coverage_masks(cs, radius, P)))
    return cache(build)


def greedy_cover(masks: Sequence[int], full: int) -> tuple[list[int], int]:
    """Greedy set cover of ``full``: (picked indices, bits left uncovered).

    Each round picks the mask adding the most bits, the lowest index on
    ties, until none adds a bit.  It runs lazily over a heap keyed by
    (-gain, index): gains only fall, so every key bounds its mask's gain,
    and a popped mask whose gain equals its key is the eager scan's pick.
    """
    heap = [(-(m & full).bit_count(), i) for i, m in enumerate(masks)]
    heapq.heapify(heap)
    left = full
    picked: list[int] = []
    while left and heap:
        key, i = heapq.heappop(heap)
        gain = (masks[i] & left).bit_count()
        if gain and gain == -key:
            picked.append(i)
            left &= ~masks[i]
        elif gain:
            heapq.heappush(heap, (-gain, i))
    return picked, left


def disk_cover_greedy(points: Sequence[Point], radius: float,
                      candidates: Sequence[Point],
                      cand_masks: Sequence[int] | None = None) -> list[Point]:
    """``greedy_cover`` of ``points`` by the candidates' masks ``cand_masks``.

    The masks are computed here when not given.  Raises ValueError if the
    candidates cannot cover some point.
    """
    if cand_masks is None:
        cand_masks = coverage_masks(candidates, radius, points)
    picked, left = greedy_cover(cand_masks, (1 << len(points)) - 1)
    if left:
        raise ValueError("candidate centers cannot cover every point")
    return [candidates[i] for i in picked]


def disk_cover_local_search(points: Sequence[Point], radius: float,
                            chosen: Sequence[Point],
                            candidates: Sequence[Point],
                            swap_budget: int,
                            cand_masks: Sequence[int] | None = None
                            ) -> list[Point]:
    """Shrink a cover by replacing j chosen disks with j-1 candidates.

    Tries swap sizes j = 2..swap_budget until no swap applies: drop sets
    in lexicographic order, and for each the lexicographically first
    j-1 candidates that cover the hole it leaves (see ``_cover_hole``).
    Candidates are grouped by equal coverage mask once per call, and the
    union of the kept disks comes from a table of ORs over index ranges
    of the current cover.  ``cand_masks`` are the candidates' coverage
    masks, computed here when not given; the chosen disks' masks come from
    one ``coverage_masks`` call.  Effort is capped: oversized inputs are
    returned unchanged.
    """
    if swap_budget < 2 or len(chosen) > 48 or len(candidates) > 4000:
        return list(chosen)
    if cand_masks is None:
        cand_masks = coverage_masks(candidates, radius, points)
    mg = _MaskGroups(cand_masks)
    full = (1 << len(points)) - 1
    current = list(chosen)
    masks = coverage_masks(current, radius, points)
    improved = True
    while improved:
        improved = False
        count = len(masks)
        # ors[a][b] is the OR of masks[a:b]
        ors = [[0] * (count + 1) for _ in range(count + 1)]
        for a in range(count):
            row, acc = ors[a], 0
            for b in range(a, count):
                acc |= masks[b]
                row[b + 1] = acc
        for j in range(2, min(swap_budget, count) + 1):
            for drop in itertools.combinations(range(count), j):
                base = ors[0][drop[0]] | ors[drop[-1] + 1][count]
                for a, b in zip(drop, drop[1:]):
                    base |= ors[a + 1][b]
                need = full & ~base
                if need == 0:
                    repl = ()
                else:
                    repl = _cover_hole(need, mg, j - 1)
                    if repl is None:
                        continue
                current = [c for i, c in enumerate(current) if i not in drop]
                masks = [mk for i, mk in enumerate(masks) if i not in drop]
                current.extend(candidates[i] for i in repl)
                masks.extend(cand_masks[i] for i in repl)
                improved = True
                break
            if improved:
                break
    return current


class _MaskGroups:
    """Candidate indices grouped by equal nonzero coverage mask.

    ``groups`` holds (mask, ascending indices) in order of each group's
    first index; ``by_bit[b]`` lists, in the same order, the groups whose
    mask holds bit b.
    """

    def __init__(self, cand_masks: Sequence[int]) -> None:
        index: dict[int, list[int]] = {}
        for i, m in enumerate(cand_masks):
            if m:
                index.setdefault(m, []).append(i)
        self.groups = list(index.items())
        self.by_bit: dict[int, list[tuple[int, list[int]]]] = {}
        for g in self.groups:
            m = g[0]
            while m:
                low = m & -m
                self.by_bit.setdefault(low.bit_length() - 1, []).append(g)
                m ^= low


def _coverable(rem: int, after: int, r: int, mg: _MaskGroups) -> bool:
    # at most r groups, each with a member above index `after`, cover
    # `rem`; one of them must hold rem's lowest bit
    if rem == 0:
        return True
    if r == 0:
        return False
    for mask, ix in mg.by_bit.get((rem & -rem).bit_length() - 1, ()):
        if ix[-1] > after:
            rest = rem & ~mask
            if rest == 0 or (r > 1 and _coverable(rest, after, r - 1, mg)):
                return True
    return False


def _cover_hole(need: int, mg: _MaskGroups, size: int) -> tuple[int, ...] | None:
    """Lexicographically first ``size`` candidates whose masks cover ``need``.

    Returns the first of ``itertools.combinations(useful, size)`` whose
    masks cover ``need``, with ``useful`` the candidates whose masks
    meet ``need`` in ascending order; None when none does.  It never
    enumerates those combinations.  Candidates whose masks agree on
    ``need`` form one equal-mask class, and whether a partial choice
    extends to a cover depends only on the classes chosen and on how
    many members of each class lie above the last pick.  So each
    position takes the smallest index that still admits a completion:
    classes are tried in ascending order of their first member above the
    previous pick (bisected from the sorted index lists), each class
    once.  r more picks complete a cover iff at most r classes with a
    member above the pick (read off each group's largest index) cover
    the rest of ``need``, and at least r useful candidates lie above the
    pick.
    """
    # most holes fail here: no `size` groups cover them at all
    if size == 0 or not _coverable(need, -1, size, mg):
        return None
    useful = [(m, ix) for m, ix in mg.groups if m & need]
    pick: list[int] = []
    got, after = 0, -1
    for r in range(size - 1, -1, -1):
        firsts = sorted((ix[bisect.bisect_right(ix, after)], m)
                        for m, ix in useful if ix[-1] > after)
        tried: set[int] = set()
        for i, m in firsts:
            key = m & need
            if key in tried:
                # an earlier member of this class admitted no completion
                continue
            tried.add(key)
            if (_coverable(need & ~(got | m), i, r, mg)
                    and sum(len(ix) - bisect.bisect_right(ix, i)
                            for _, ix in useful) >= r):
                break
        else:
            return None
        pick.append(i)
        got, after = got | m, i
    return tuple(pick)


def disk_cover_approx(points: Sequence[Point], radius: float,
                      candidates: Sequence[Point],
                      epsilon: float = 1.0) -> list[Point]:
    """Greedy cover polished by local search; swap budget min(ceil(1/eps^2), 3).

    The candidates' coverage masks are computed once and shared by both.
    """
    cand_masks = coverage_masks(candidates, radius, points)
    chosen = disk_cover_greedy(points, radius, candidates, cand_masks)
    # below eps = 0.5, where 1/eps^2 can overflow, the budget is 3
    budget = 3 if epsilon < 0.5 else min(math.ceil(1.0 / (epsilon * epsilon)), 3)
    return disk_cover_local_search(points, radius, chosen, candidates, budget,
                                   cand_masks)


def disk_graph(points: Sequence[Point], radii: Sequence[float]) -> list[set[int]]:
    """Intersection graph of disks: edge iff centers within r_i + r_j (+TOL).

    The test is the all-pairs one, ``distance(p_i, p_j) <= r_i + r_j +
    TOL``, but it is made only for pairs in the same or adjacent cells of
    a square grid.  The cell side is at least the largest reach
    2 max(r) + TOL, and at least 2^-40 times the largest coordinate
    magnitude, so that each quotient x / cell is within 2^-13 of exact;
    it is widened by 2^-10 on top.  Two points that pass the test are
    then less than one cell apart in the computed quotients on either
    axis, so their cells are the same or adjacent: no edge is missed,
    for zero radii, coincident points and offset coordinates alike.
    """
    n = len(points)
    nbrs: list[set[int]] = [set() for _ in range(n)]
    if n < 2:
        return nbrs
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    scale = max(max(map(abs, xs)), max(map(abs, ys)))
    cell = max(2.0 * max(radii) + TOL, scale * 2.0 ** -40) * (1.0 + 2.0 ** -10)
    grid: dict[tuple[int, int], list[int]] = {}
    for i in range(n):
        grid.setdefault((math.floor(xs[i] / cell), math.floor(ys[i] / cell)),
                        []).append(i)
    hypot = math.hypot
    for (gx, gy), mine in grid.items():
        # each pair of cells once: this one, then four of its neighbours
        for other in (mine, grid.get((gx + 1, gy - 1)), grid.get((gx + 1, gy)),
                      grid.get((gx + 1, gy + 1)), grid.get((gx, gy + 1))):
            if not other:
                continue
            for a, i in enumerate(mine):
                xi, yi, ri = xs[i], ys[i], radii[i]
                hits = [j for j in (mine[a + 1:] if other is mine else other)
                        if hypot(xi - xs[j], yi - ys[j]) <= ri + radii[j] + TOL]
                if hits:
                    nbrs[i].update(hits)
                    for j in hits:
                        nbrs[j].add(i)
    return nbrs


def closed_neighborhoods(neighbors: Sequence[set[int]]) -> list[int]:
    """Each vertex's closed neighbourhood as an int bitmask."""
    bits = [1 << v for v in range(len(neighbors))]
    closed = []
    for v, nb in enumerate(neighbors):
        m = bits[v]
        for u in nb:
            m |= bits[u]
        closed.append(m)
    return closed


def dominating_set_greedy(neighbors: Sequence[set[int]]) -> list[int]:
    """Greedy dominating set: ``greedy_cover`` by the closed neighbourhoods."""
    return greedy_cover(closed_neighborhoods(neighbors),
                        (1 << len(neighbors)) - 1)[0]


def zone_of(p: Point, center: Point, delta: float) -> int | None:
    """Sector index 0..12 if ``p`` lies in the late annulus around ``center``.

    The annulus spans distances [26/27, 1] * delta; sector k covers bearing
    angles [2 pi k / 13, 2 pi (k+1) / 13).  None when outside.
    """
    d = distance(p, center)
    if d > delta + TOL or d < ANNULUS_INNER_FRACTION * delta - TOL:
        return None
    ang = math.atan2(p.y - center.y, p.x - center.x) % (2.0 * math.pi)
    return min(int(ang / (2.0 * math.pi / ZONE_COUNT)), ZONE_COUNT - 1)


def zone_diameter_fraction() -> float:
    """Zone diameter as a fraction of the guess: 2 sin(pi/13) < 13/27."""
    return 2.0 * math.sin(math.pi / ZONE_COUNT)


def scaled_template(center: Point, delta: float) -> list[Point]:
    """The five template centers scaled by ``delta`` and moved to ``center``."""
    assert _template_verified(), "frozen five-disk template failed verification"
    return [Point(center.x + delta * tx, center.y + delta * ty)
            for tx, ty in FIVE_COVER_CENTERS]


@lru_cache(maxsize=1)
def _template_verified() -> bool:
    return verify_template(FIVE_COVER_CENTERS, FIVE_COVER_RADIUS, resolution=0.05)


def _cells_certified(r1, r2, t1, t2, centers, radius):
    # exact max distance from a center to a polar cell: squared distance is
    # convex in the radial coordinate (max at r1 or r2) and maximal at the
    # cell angle farthest from the center's bearing (an endpoint, or the
    # antipodal bearing when the cell's angle range contains it)
    two_pi = 2.0 * math.pi
    r2sq = radius * radius
    ok = np.zeros(r1.shape, dtype=bool)
    for cx, cy in centers:
        m = math.hypot(cx, cy)
        phi = math.atan2(cy, cx)
        rem = ~ok
        if not rem.any():
            break
        a = np.mod(t1[rem] - phi, two_pi)
        w = t2[rem] - t1[rem]
        cmin = np.minimum(np.cos(a), np.cos(a + w))
        has_pi = ((a <= math.pi) & (a + w >= math.pi)) | (a + w >= 3.0 * math.pi)
        cmin = np.where(has_pi, -1.0, cmin)
        lo, hi = r1[rem], r2[rem]
        d2 = np.maximum(lo * lo + m * m - 2.0 * m * lo * cmin,
                        hi * hi + m * m - 2.0 * m * hi * cmin)
        sub = np.zeros(r1.shape, dtype=bool)
        sub[rem] = d2 <= r2sq
        ok |= sub
    return ok


def _nearest2(x, y, centers) -> np.ndarray:
    # squared distance from each (x, y) to its nearest center
    g2 = np.full(np.shape(x), math.inf)
    for cx, cy in centers:
        np.minimum(g2, (x - cx) ** 2 + (y - cy) ** 2, out=g2)
    return g2


def _corner_uncovered(r1, r2, t1, t2, centers, radius) -> bool:
    # a sampled cell corner farther than `radius` from every center refutes
    return any((_nearest2(rr * np.cos(tt), rr * np.sin(tt), centers) > radius * radius).any()
               for rr, tt in ((r1, t1), (r1, t2), (r2, t1), (r2, t2)))


def verify_template(centers: Sequence[tuple[float, float]], radius: float,
                    resolution: float = 1e-2) -> bool:
    """Rigorously decide whether the disks cover the closed unit disk.

    Seeds a polar grid with spacing ``resolution`` and certifies each cell
    against a single center via the exact maximum cell distance; failing
    cells are split four ways until all certify.  True is returned only
    with every cell certified, so a positive answer is sound up to float
    rounding.  False means a corner witness escaped every disk or the
    subdivision budget ran out before certifying.
    """
    if not 0 < resolution < math.inf:  # also rejects nan
        raise ValueError(f"resolution must be positive and finite, got {resolution!r}")
    if not centers:
        return False
    two_pi = 2.0 * math.pi
    n_r = max(2, math.ceil(1.0 / resolution))
    n_t = max(4, math.ceil(two_pi / resolution))
    redges = np.linspace(0.0, 1.0, n_r + 1)
    tedges = np.linspace(0.0, two_pi, n_t + 1)

    live: list[tuple] = []
    rows_per_chunk = max(1, 200_000 // n_t)
    for lo in range(0, n_r, rows_per_chunk):
        hi = min(n_r, lo + rows_per_chunk)
        R1, T1 = np.meshgrid(redges[lo:hi], tedges[:-1], indexing="ij")
        R2, T2 = np.meshgrid(redges[lo + 1:hi + 1], tedges[1:], indexing="ij")
        r1, r2 = R1.ravel(), R2.ravel()
        t1, t2 = T1.ravel(), T2.ravel()
        ok = _cells_certified(r1, r2, t1, t2, centers, radius)
        if not ok.all():
            keep = ~ok
            live.append((r1[keep], r2[keep], t1[keep], t2[keep]))

    if not live:
        return True
    r1 = np.concatenate([c[0] for c in live])
    r2 = np.concatenate([c[1] for c in live])
    t1 = np.concatenate([c[2] for c in live])
    t2 = np.concatenate([c[3] for c in live])

    for _ in range(40):
        if _corner_uncovered(r1, r2, t1, t2, centers, radius):
            return False
        if r1.size > 20_000_000:
            return False
        rm, tm = (r1 + r2) / 2.0, (t1 + t2) / 2.0
        r1 = np.concatenate([r1, rm, r1, rm])
        r2 = np.concatenate([rm, r2, rm, r2])
        t1 = np.concatenate([t1, t1, tm, tm])
        t2 = np.concatenate([tm, tm, t2, t2])
        ok = _cells_certified(r1, r2, t1, t2, centers, radius)
        if ok.all():
            return True
        keep = ~ok
        r1, r2, t1, t2 = r1[keep], r2[keep], t1[keep], t2[keep]
    return False


def sample_covering_radius(centers: Sequence[tuple[float, float]],
                           n_radial: int = 80, n_angular: int = 320) -> float:
    """Sampled covering radius: max over a polar grid of the min distance."""
    rr = np.linspace(0.0, 1.0, n_radial + 1)
    tt = np.linspace(0.0, 2.0 * math.pi, n_angular, endpoint=False)
    R, T = np.meshgrid(rr, tt, indexing="ij")
    return float(np.sqrt(_nearest2(R * np.cos(T), R * np.sin(T), centers).max()))


def max_coverage_groups(groups: Sequence[Sequence[int]],
                        labels: Sequence[Sequence[object]] | None = None
                        ) -> list[tuple[int, int]]:
    """Greedy max coverage picking at most one set per group.

    Sets are int bitmasks.  Each round selects the (group, set) pair with
    the largest number of newly covered elements, preferring lower group
    index then lower set index on ties, skipping groups already used and,
    when ``labels`` is given, sets whose label was already used.  Stops
    when no positive gain remains.  Returns the picked (group, set) index
    pairs in pick order.
    """
    used_groups: set[int] = set()
    used_labels: set[object] = set()
    covered = 0
    picks: list[tuple[int, int]] = []
    while True:
        best_gain, best = 0, None
        for gi, sets in enumerate(groups):
            if gi in used_groups:
                continue
            for si, s in enumerate(sets):
                if labels is not None and labels[gi][si] in used_labels:
                    continue
                gain = (s & ~covered).bit_count()
                if gain > best_gain:
                    best_gain, best = gain, (gi, si)
        if best is None:
            return picks
        gi, si = best
        used_groups.add(gi)
        if labels is not None:
            used_labels.add(labels[gi][si])
        covered |= groups[gi][si]
        picks.append(best)
