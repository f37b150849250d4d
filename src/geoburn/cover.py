"""Disk-covering primitives shared by the planar pipelines.

Contents: candidate center generation (input points, pair midpoints,
circumcenters), coverage masks and the per-solve fire-mask tables, the
maximal-mask filter that prunes the exact searches, one lazy greedy set
cover (disk covers, with an optional local-search polish, dominating
sets of disk graphs, and grouped max coverage through tag bits), the
packing lower bound that rejects a dominating-set guess before its disk
graph is built, the frozen five-disk covering template with a rigorous
verifier, and the annulus zones used by the planar point-model pipeline.
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
from functools import cache, lru_cache, reduce
from operator import or_
from typing import Callable, Iterator, Sequence

import numpy as np

from geoburn.core import (
    POINT,
    TOL,
    Instance,
    Model,
    Point,
    _coords,
    distance,
    pack_masks,
    reach_hits,
    squared_distances,
    within,
)

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

# rows of the disk graph's pair tests per block, and the strict upper
# triangle of a block's leading square: each pair once, from its earlier point
_GRAPH_BLOCK = 64
_BLOCK_UPPER = np.triu(np.ones((_GRAPH_BLOCK, _GRAPH_BLOCK), dtype=bool), 1)


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


def coverage_masks(centers: Sequence[Point] | np.ndarray, radius: float,
                   points: Sequence[Point] | np.ndarray) -> list[int]:
    """coverage_mask for many centers at once, each at reach radius + TOL.

    Centers and points are Point sequences or (m, 2) float arrays.  The
    masks are ``core.pack_masks`` of ``core.reach_hits`` over
    ``core.squared_distances``.
    """
    C, P = _coords(centers), _coords(points)
    reach = np.full((len(C), 1), radius + TOL)
    return pack_masks(reach_hits(squared_distances(C, P), reach, C, P))


def line_fire_centers(xs: np.ndarray, radius: float | np.ndarray) -> np.ndarray:
    """Centers of the line fires of ``radius`` whose right edges sit on xs.

    Each is x - radius, no further left than the most negative float (a
    fire stopped there covers a superset of the slid one), moved right an
    ulp at a time until ``within`` says its reach (radius + TOL) holds x:
    far from the origin x - radius can round to a center that does not
    burn x.  xs and radius broadcast against each other.
    """
    reach = radius + TOL
    with np.errstate(over="ignore"):
        centers = np.maximum(xs - radius, -sys.float_info.max)
        while not (fit := within(xs - centers, reach)).all():
            centers = np.where(fit, centers, np.nextafter(centers, math.inf))
    return centers


def fire_masks(inst: Instance, model: Model, sources: Sequence[int]
               ) -> Callable[[int], list[tuple[object, int]]]:
    """A solve's fires as a table ``at(rho)``, each rho built once on first use.

    ``at(rho)`` holds an (ident, coverage mask) entry per fire that spreads
    rho steps, at radius ``rate * rho``.  Point model: the idents are
    ``sources``, in order; their squared distances to ``inst.coords`` are
    computed once per table, and each rho only settles them against one
    reach ``rate * rho + TOL`` per source (``core.reach_hits``).  Anywhere
    model: the idents are centers, one ``coverage_masks`` call per rho; in the
    plane the candidate centers (built once), and on a line the
    ``line_fire_centers`` of the points (a fire slid right until its right
    edge sits on a point keeps all it covered).
    """
    P = inst.coords
    if model.tag == POINT:
        C, rates = P[list(sources)], np.array([inst.rates[i] for i in sources])[:, None]
        d2 = squared_distances(C, P)

        def build(rho: int) -> list[tuple[object, int]]:
            return list(zip(sources, pack_masks(reach_hits(d2, rates * rho + TOL, C, P))))
    else:
        rate = inst.rates[0] if inst.rates else 1.0
        base = candidate_centers(inst.points) if inst.dimension == 2 else None
        B = None if base is None else _coords(base)

        def build(rho: int) -> list[tuple[object, int]]:
            radius = rate * rho
            if base is not None:
                return list(zip(base, coverage_masks(B, radius, P)))
            xs = line_fire_centers(P[:, 0], radius)
            C = np.stack((xs, P[:, 1]), axis=1)
            return list(zip(map(Point, xs.tolist()), coverage_masks(C, radius, P)))
    return cache(build)


def maximal_masks(entries: Sequence[tuple[object, int]]) -> list[tuple[object, int]]:
    """The (ident, mask) entries whose mask no other entry's mask strictly contains.

    Of equal masks only the first is kept, zero masks are dropped, and the
    kept entries stay in input order.  The distinct masks are visited by
    popcount, largest first, so every mask that contains one is visited
    before it, and some kept mask contains each dropped one; each mask is
    tested only against the kept masks that hold its lowest bit.
    """
    first: dict[int, int] = {}
    for j, (_, m) in enumerate(entries):
        if m:
            first.setdefault(m, j)
    by_bit: dict[int, list[int]] = {}
    kept: list[int] = []
    for m in sorted(first, key=int.bit_count, reverse=True):
        if any(not m & ~big for big in by_bit.get((m & -m).bit_length() - 1, ())):
            continue
        kept.append(first[m])
        rest = m
        while rest:
            low = rest & -rest
            by_bit.setdefault(low.bit_length() - 1, []).append(m)
            rest ^= low
    return [entries[j] for j in sorted(kept)]


def greedy_cover(masks: Sequence[int], full: int) -> tuple[list[int], int]:
    """Greedy set cover of ``full``: (picked indices, bits left uncovered).

    Each round picks the mask adding the most bits of ``full``, the lowest
    index on ties, until none adds a bit.  A mask's bits outside ``full``
    are tags: a mask sharing a tag with a picked mask is never picked.
    It runs lazily over a heap keyed by (-gain, index): gains only fall,
    so every key bounds its mask's gain, and a popped mask whose gain
    equals its key is the eager scan's pick.
    """
    heap = [(-(m & full).bit_count(), i) for i, m in enumerate(masks)]
    heapq.heapify(heap)
    left = full
    tags = 0
    picked: list[int] = []
    while left and heap:
        key, i = heapq.heappop(heap)
        if tags and masks[i] & tags:
            continue
        gain = (masks[i] & left).bit_count()
        if gain and gain == -key:
            picked.append(i)
            left &= ~masks[i]
            tags |= masks[i] & ~full
        elif gain:
            heapq.heappush(heap, (-gain, i))
    return picked, left


def disk_cover_greedy(cand_masks: Sequence[int], n: int) -> list[int]:
    """``greedy_cover`` of n points by the candidates' masks: the picked indices.

    Raises ValueError if the candidates cannot cover some point.
    """
    picked, left = greedy_cover(cand_masks, (1 << n) - 1)
    if left:
        raise ValueError("candidate centers cannot cover every point")
    return picked


def disk_cover_local_search(cand_masks: Sequence[int], n: int, chosen: Sequence[int],
                            swap_budget: int) -> list[int]:
    """Shrink a cover of n points by replacing j chosen disks with j-1 candidates.

    ``chosen`` and the result are indices into ``cand_masks``, the
    candidates' coverage masks.  Each pass scans drop sets of j = 2, 3,
    ..., swap_budget disks, each size in ``itertools.combinations``
    order, with the hole each leaves (``_drop_holes``), and applies the
    first swap found: the first cover of the hole by at most j-1
    candidates that ``_coverable`` finds, branching on the hole's lowest
    point.  Its hitting walk settles most holes before any group is
    scanned.  Passes repeat until none finds a swap.  Every swap trades
    j disks for exactly j-1 (or 2 for none): a pass reaches j only when
    no drop set of j-1 disks left a hole that j-2 candidates cover, and
    dropping one disk fewer leaves a smaller hole.  So the result is
    locally optimal for swaps of at most swap_budget disks, whichever
    cover each swap took.  Candidates are grouped by equal coverage mask
    once per call.

    Past 48 chosen disks the input is returned unchanged: a pass then
    scans over 17,000 drop sets of three, and in the benchmark only
    hopeless guesses get there (greedy covers of 53-136 disks against
    thresholds of 1.5-4.5 at n = 152, beyond greedy's H(n) factor, so no
    swaps could get them accepted); searching them anyway takes a seed-1
    plane-cover round from 0.18 to 0.93 s (best of three, shared 2-vCPU
    VM).  The number of candidates is not capped: the hitting walk
    settles most holes before any scan.  On density-scaled anywhere solves (eps = 0.5, seeds 1-2) a
    cap at 4000 candidates would raise the summed horizon from 122 to 135
    at n = 30-40 (for 1.20 -> 0.98 s) and from 99 to 106 at n = 100-150
    (for 1.91 -> 1.15 s), and no solve is better with it.
    """
    if swap_budget < 2 or len(chosen) > 48:
        return list(chosen)
    mg = _MaskGroups(cand_masks)
    full = (1 << n) - 1
    current = list(chosen)
    while True:
        masks = [cand_masks[c] for c in current]
        for drop, hole in _drop_holes(masks, full, swap_budget):
            repl = _coverable(hole, len(drop) - 1, mg)
            if repl is not None:
                current = [c for i, c in enumerate(current) if i not in drop]
                current.extend(repl)
                break
        else:
            return current


def _drop_holes(masks: Sequence[int], full: int,
                swap_budget: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """(drop, hole) for each drop set of j = 2..swap_budget indices into ``masks``.

    Drop sets come as ``itertools.combinations(range(len(masks)), j)``
    yields them, j ascending; ``hole`` is ``full`` minus the union of
    the masks left out of ``drop``.  For each (j - 1)-index prefix the
    kept masks below its last index are ORed once; the last index then
    runs in a flat loop over a table of ORs of index ranges.
    """
    count = len(masks)
    # ors[a][b] is the OR of masks[a:b]
    ors = [[0] * (count + 1) for _ in range(count + 1)]
    for a in range(count):
        row, acc = ors[a], 0
        for b in range(a, count):
            acc |= masks[b]
            row[b + 1] = acc
    tail = [ors[d + 1][count] for d in range(count)]
    for j in range(2, swap_budget + 1):
        for prefix in itertools.combinations(range(count - 1), j - 1):
            kept = ors[0][prefix[0]]
            for a, b in zip(prefix, prefix[1:]):
                kept |= ors[a + 1][b]
            low = prefix[-1] + 1
            row = ors[low]
            for d in range(low, count):
                yield prefix + (d,), full & ~(kept | row[d] | tail[d])


class CapacityError(Exception):
    """The search node budget ran out before an answer was proven."""


class _MaskGroups:
    """Candidate indices grouped by equal nonzero coverage mask, for ``_coverable``.

    ``by_bit[b]`` lists (mask, lowest index) for the groups whose mask
    holds bit b, in order of that index; ``reach[b]`` is the OR of those
    masks, every point that shares a candidate with point b (the hitting
    walk's strips).  ``budget`` counts the ``_coverable`` nodes left
    before CapacityError: infinite for local search, a node budget for
    ``oracle._min_cover``.
    """

    def __init__(self, cand_masks: Sequence[int]) -> None:
        self.budget = math.inf
        first: dict[int, int] = {}
        for i, m in enumerate(cand_masks):
            if m:
                first.setdefault(m, i)
        self.by_bit: dict[int, list[tuple[int, int]]] = {}
        self.reach: dict[int, int] = {}
        for m, i in first.items():
            rest = m
            while rest:
                low = rest & -rest
                b = low.bit_length() - 1
                self.by_bit.setdefault(b, []).append((m, i))
                self.reach[b] = self.reach.get(b, 0) | m
                rest ^= low


def _coverable(rem: int, r: int, mg: _MaskGroups) -> tuple[int, ...] | None:
    """At most r candidates whose masks cover ``rem``: the first such cover
    found, as the lowest index of each equal-mask group it uses, or None.

    A hitting walk bounds each call.  Take b1 as rem's lowest point and
    strip ``reach[b1]``, then b2 as the lowest point left, and so on.  No
    candidate holds both bi and a later bj, since bj lies outside
    ``reach[bi]``; so points left after r strips give r + 1 points that
    need r + 1 distinct candidates, and the call returns None without
    scanning a group.  Otherwise one mask of any cover holds rem's lowest
    bit: the search branches on the groups holding it, in group order.
    A node is a call that gets past the walk; each spends one unit of
    ``mg.budget``.
    """
    if rem == 0:
        return ()
    left = rem
    for _ in range(r):
        left &= ~mg.reach.get((left & -left).bit_length() - 1, 0)
        if not left:
            break
    else:
        # r strips left points over (or r == 0)
        return None
    mg.budget -= 1
    if mg.budget < 0:
        raise CapacityError("cover search node budget exhausted")
    for mask, i in mg.by_bit.get((rem & -rem).bit_length() - 1, ()):
        rest = rem & ~mask
        if rest == 0:
            return (i,)
        if r > 1:
            used = _coverable(rest, r - 1, mg)
            if used is not None:
                return (i,) + used
    return None


def disk_cover_approx(points: Sequence[Point], radius: float,
                      candidates: Sequence[Point],
                      epsilon: float = 1.0) -> list[Point]:
    """Greedy cover polished by local search; swap budget min(ceil(1/eps^2), 3).

    The candidates' coverage masks are computed once; both steps work on
    candidate indices, which become centers at the end.
    """
    cand_masks = coverage_masks(candidates, radius, points)
    chosen = disk_cover_greedy(cand_masks, len(points))
    # below eps = 0.5, where 1/eps^2 can overflow, the budget is 3
    budget = 3 if epsilon < 0.5 else min(math.ceil(1.0 / (epsilon * epsilon)), 3)
    return [candidates[i]
            for i in disk_cover_local_search(cand_masks, len(points), chosen, budget)]


def disk_graph(points: Sequence[Point] | np.ndarray,
               radii: Sequence[float]) -> list[np.ndarray]:
    """Intersection graph of disks: edge iff centers within r_i + r_j (+TOL).

    Returns one 1-D integer array per vertex, of its neighbours' indices
    in no set order, without the vertex itself and without repeats.

    The test is the all-pairs one, ``distance(p_i, p_j) <= r_i + r_j +
    TOL``, over numpy blocks of rows: ``core.reach_hits`` decides each
    pair's squared distance against its reach ``(r_i + r_j) + TOL`` with
    exactly ``math.hypot``'s verdict.  The points are sorted by x, and each
    pair is tested once, from its earlier point, only when the later one lies
    in the earlier one's x-window; a block of rows takes the columns up
    to its last row's window end, which bounds every earlier row's.

    The window misses no edge.  A pair that passes has ``|fl(x_j - x_i)|
    <= hypot <= w``, where w = 2 max(r) + TOL as computed (rounding is
    monotone), so ``|x_j - x_i| <= w (1 + 2^-52)``.  The window reaches
    ``(w + 2^-40 s) (1 + 2^-10)`` past x_i, with s the largest coordinate
    magnitude.  The sum that places its end is off by at most half an ulp
    of s plus the window, which the widening exceeds, so zero radii,
    coincident points and offsets of 1e15 are safe.  Points that share
    one x fall in each other's windows, however many blocks they span.
    """
    n = len(points)
    if n < 2:
        return [np.zeros(0, dtype=np.intp) for _ in range(n)]
    P = _coords(points)
    order = np.argsort(P[:, 0])
    S = P[order]
    R = np.asarray(radii, dtype=float)[order]
    scale = float(np.abs(P).max())
    window = (2.0 * float(R.max()) + TOL + scale * 2.0 ** -40) * (1.0 + 2.0 ** -10)
    with np.errstate(over="ignore"):
        ends = np.searchsorted(S[:, 0], S[:, 0] + window, side="right")
    tails, heads = [], []
    for a in range(0, n, _GRAPH_BLOCK):
        b = min(a + _GRAPH_BLOCK, n)
        end = ends[b - 1]
        C, Q = S[a:b], S[a:end]
        with np.errstate(over="ignore"):
            reach = R[a:b, None] + R[None, a:end] + TOL
        hit = reach_hits(squared_distances(C, Q), reach, C, Q)
        m = b - a
        hit[:, :m] &= _BLOCK_UPPER[:m, :m]
        rows, cols = np.nonzero(hit)
        tails.append(order[a + rows])
        heads.append(order[a + cols])
    tail, head = np.concatenate(tails), np.concatenate(heads)
    src, dst = np.concatenate((tail, head)), np.concatenate((head, tail))
    # a stable sort of 8- or 16-bit keys is a radix sort
    by_src = np.argsort(src.astype(np.min_scalar_type(n - 1)), kind="stable")
    dst = dst[by_src]
    ends = np.cumsum(np.bincount(src, minlength=n)).tolist()
    return [dst[lo:hi] for lo, hi in zip([0] + ends, ends)]


def closed_neighborhoods(neighbors: Sequence[np.ndarray | set[int]]) -> list[int]:
    """Each vertex's closed neighbourhood as an int bitmask.

    ``neighbors[v]`` holds v's neighbour indices, as ``disk_graph``'s 1-D
    integer arrays or as sets of ints; a vertex may have none.  Each block
    of rows is scattered into a boolean matrix, with the diagonal set, and
    packed by ``pack_masks``.
    """
    n = len(neighbors)
    closed: list[int] = []
    for a in range(0, n, _GRAPH_BLOCK):
        rows = [nb if isinstance(nb, np.ndarray) else np.fromiter(nb, np.intp, len(nb))
                for nb in neighbors[a:a + _GRAPH_BLOCK]]
        m = len(rows)
        hit = np.zeros((m, n), dtype=bool)
        hit[np.repeat(np.arange(m), [len(nb) for nb in rows]), np.concatenate(rows)] = True
        # row i's own column a + i sits at flat index a + i (n + 1)
        hit.reshape(-1)[a::n + 1] = True
        closed += pack_masks(hit)
    return closed


def dominating_set_greedy(neighbors: Sequence[np.ndarray | set[int]]) -> list[int]:
    """Greedy dominating set: ``greedy_cover`` by the closed neighbourhoods.

    ``neighbors`` as ``closed_neighborhoods`` takes it.
    """
    return greedy_cover(closed_neighborhoods(neighbors),
                        (1 << len(neighbors)) - 1)[0]


def packing_lower_bound(coords: Sequence[Point] | np.ndarray, reaches: Sequence[float],
                        limit: int) -> int:
    """Greedy packing count of points pairwise beyond their summed reaches.

    Keeps points in input order: a point is kept iff its distance to every
    kept point exceeds ``(reach_i + reach_j) (1 + 2^-40)``.  Stops once it
    holds more than ``limit``, so it returns at most ``limit + 1``.

    With ``disk_graph``'s radii r and reaches ``r_i + max(r) + TOL``, two
    kept points share no dominator: through one, v, their distance is at
    most ``r_i + 2 r_v + r_j + 2 TOL``.  So the count bounds every
    dominating set of that graph from below.  The margin 2^-40 covers the
    rounding on both sides, a few ulps relative each: the graph's hypot
    verdicts and float reaches, and here the squares of the coordinate
    differences and of the separations.  That needs reaches of at least
    TOL, so that no square near a separation is subnormal.  An overflowed
    square is inf: a distance's keeps a point only against a finite
    separation, which the pair then truly exceeds, and a separation's
    keeps none.
    """
    P = _coords(coords)
    x, y = P[:, 0], P[:, 1]
    reach = np.asarray(reaches, dtype=float) * (1.0 + 2.0 ** -40)
    count = 0
    with np.errstate(over="ignore"):
        # the first point left is the next kept one; the rest keep input order
        while count <= limit and len(x):
            count += 1
            dx, dy, sep = x[1:] - x[0], y[1:] - y[0], reach[0] + reach[1:]
            far = dx * dx + dy * dy > sep * sep
            x, y, reach = x[1:][far], y[1:][far], reach[1:][far]
    return count


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
                        labels: Sequence[Sequence[object]]) -> list[tuple[int, int]]:
    """Greedy max coverage picking at most one set per group and per label.

    Sets are int bitmasks, and ``labels[g][s]`` is set s's label in group
    g.  ``greedy_cover`` runs over the sets in (group, set) order, each
    tagged above the elements with a bit for its group and one for its
    label.  Returns the picked (group, set) index pairs in pick order.
    """
    full = reduce(or_, itertools.chain.from_iterable(groups), 0)
    one = 1 << full.bit_length()  # the lowest tag bit
    label_tag = {label: one << (len(groups) + i) for i, label in
                 enumerate(dict.fromkeys(itertools.chain.from_iterable(labels)))}
    pairs = [(g, s) for g, sets in enumerate(groups) for s in range(len(sets))]
    masks = [groups[g][s] | one << g | label_tag[labels[g][s]] for g, s in pairs]
    return [pairs[i] for i in greedy_cover(masks, full)[0]]
