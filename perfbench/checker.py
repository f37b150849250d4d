"""Independent output checks for the benchmark.

Nothing here imports geoburn or calls its validator: schedules and
instances are read through their attributes only (``points`` with ``x``
and ``y``, ``rates``; ``model.tag``, ``model.k``, ``total_steps`` and
``sources`` with ``center``, ``step`` and ``rate``), and every rule is
re-derived from the burning process itself.  A source ignited at step i
with rate r has burnt the disk of radius r * (s - i) once step s has
begun, and reaches r * (T - i) after the last step T.
"""

from __future__ import annotations

import itertools
import math

TOL = 1e-9  # same additive tolerance the burning process is defined with
# two points share one fire of radius R only if they are within 2R + 2 TOL;
# the packing keeps a clear margin above that
PACK_MARGIN = 1e-6


def _dist(ax: float, ay: float, bx: float, by: float) -> float:
    return math.hypot(ax - bx, ay - by)


def _point_index(points) -> dict[tuple[float, float], list[int]]:
    index: dict[tuple[float, float], list[int]] = {}
    for i, p in enumerate(points):
        index.setdefault((p.x, p.y), []).append(i)
    return index


def _matches(points, index, center) -> list[int]:
    hit = index.get((center.x, center.y))
    if hit:
        return hit
    return [i for i, p in enumerate(points)
            if _dist(p.x, p.y, center.x, center.y) <= TOL]


def burned_mask(points, sched) -> list[bool]:
    """Which points lie within some source's final fire disk."""
    T = sched.total_steps
    fires = [(s.center.x, s.center.y, s.rate * (T - s.step) + TOL)
             for s in sched.sources if s.step <= T]
    out = []
    for p in points:
        out.append(any(_dist(p.x, p.y, x, y) <= r for x, y, r in fires))
    return out


def check_schedule(inst, sched, *, horizon: int, tag: str, k: int = 1,
                   allowed_sources=None, cover_all: bool = True) -> list[str]:
    """Every rule a returned schedule breaks, as short ``rule: detail`` lines.

    ``allowed_sources`` restricts point-model ignitions to those instance
    indices (max-burn and the reduction layouts).  With ``cover_all``
    every instance point must burn by the horizon.
    """
    problems: list[str] = []
    T = sched.total_steps
    if T != horizon:
        problems.append(f"horizon: schedule runs {T} steps, solver said {horizon}")
    if sched.model.tag != tag or sched.model.k != k:
        problems.append(f"model: got {sched.model.tag}/k={sched.model.k}, "
                        f"want {tag}/k={k}")
    per_step: dict[int, int] = {}
    for s in sched.sources:
        if not 1 <= s.step <= T:
            problems.append(f"step-range: ignition step {s.step} outside 1..{T}")
        per_step[s.step] = per_step.get(s.step, 0) + 1
    for step, count in sorted(per_step.items()):
        if count > k:
            problems.append(f"step-capacity: {count} ignitions at step {step}, k={k}")

    pts = inst.points
    if tag == "point":
        index = _point_index(pts)
        taken: set[int] = set()
        for s in sched.sources:
            # coincident instance points are distinct ignition sites
            hits = _matches(pts, index, s.center)
            free = [i for i in hits if i not in taken
                    and (allowed_sources is None or i in allowed_sources)]
            if not free:
                rule = "shared-point" if any(i in taken for i in hits) else "off-point"
                problems.append(f"{rule}: no free permitted instance point at "
                                f"({s.center.x}, {s.center.y})")
                continue
            i = free[0]
            taken.add(i)
            if s.rate != inst.rates[i]:
                problems.append(f"rate: source on point {i} spreads at {s.rate}, "
                                f"the point's rate is {inst.rates[i]}")
        ordered = sorted(sched.sources, key=lambda s: s.step)
        for j, s in enumerate(ordered):
            for e in ordered[:j]:
                if e.step < s.step and _dist(s.center.x, s.center.y, e.center.x,
                                             e.center.y) <= e.rate * (s.step - e.step) + TOL:
                    problems.append(f"burnt-ignition: step-{s.step} source at "
                                    f"({s.center.x}, {s.center.y}) already burnt by "
                                    f"the step-{e.step} fire")
                    break
    else:
        rate = inst.rates[0] if inst.rates else 1.0
        if any(r != rate for r in inst.rates):
            problems.append("rates: free placement needs uniform rates")
        for s in sched.sources:
            if s.rate != rate:
                problems.append(f"rate: free source spreads at {s.rate}, not {rate}")

    if cover_all and not any(p.startswith("step-range") for p in problems):
        missed = [i for i, ok in enumerate(burned_mask(pts, sched)) if not ok]
        if missed:
            problems.append(f"unburnt: {len(missed)} points, first {missed[:5]}")
    return problems


def only_burnt_ignitions(problems: list[str]) -> bool:
    """True for a non-empty problem list made of burnt ignitions alone."""
    return bool(problems) and all(p.startswith("burnt-ignition") for p in problems)


def _packing_count(points, sep: float) -> int:
    # greedy packing in input order: keep a point iff it is farther than
    # `sep` from every kept point; a grid of cell `sep` finds neighbours
    grid: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for p in points:
        gx, gy = math.floor(p.x / sep), math.floor(p.y / sep)
        if not any(_dist(p.x, p.y, qx, qy) <= sep
                   for nx in (gx - 1, gx, gx + 1) for ny in (gy - 1, gy, gy + 1)
                   for qx, qy in grid.get((nx, ny), ())):
            grid.setdefault((gx, gy), []).append((p.x, p.y))
    return sum(len(cell) for cell in grid.values())


def packing_lower_bound(inst, k: int = 1) -> int:
    """A certified lower bound on the burning number (any placement).

    Every fire of a T-step schedule has final radius at most
    r_max * (T - 1), so points pairwise farther apart than twice that
    need distinct fires.  If a packing holds more than k * T of them,
    no T-step schedule exists and the burning number exceeds T.  The
    bound is the first T the greedy packing does not rule out.
    """
    if not inst.points:
        return 0
    r_max = max(inst.rates)
    T = 1
    while _packing_count(inst.points, 2.0 * r_max * (T - 1) + PACK_MARGIN) > k * T:
        T += 1
    return T


def sat_by_enumeration(variable_count: int, clauses) -> bool:
    """Whether some assignment satisfies every clause (signed literals)."""
    for bits in itertools.product((False, True), repeat=variable_count):
        if all(any(bits[abs(lit) - 1] == (lit > 0) for lit in clause)
               for clause in clauses):
            return True
    return False
